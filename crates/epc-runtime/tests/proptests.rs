//! Property tests: every parallel primitive must agree with its serial
//! equivalent — element-for-element, and bit-for-bit for floats — across
//! arbitrary inputs, thread budgets, and chunk sizes.

use epc_runtime::RuntimeConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_matches_serial_map(
        items in prop::collection::vec(-1_000i64..1_000, 0..300),
        threads in 1usize..9,
    ) {
        let expected: Vec<i64> = items.iter().map(|&x| x.wrapping_mul(3) - 7).collect();
        let got = epc_runtime::par_map(&RuntimeConfig::new(threads), &items, |&x| {
            x.wrapping_mul(3) - 7
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn par_map_coarse_matches_serial_map(
        items in prop::collection::vec(-50.0f64..50.0, 0..40),
        threads in 1usize..9,
    ) {
        let expected: Vec<u64> = items.iter().map(|&x| (x * x + 1.0).to_bits()).collect();
        let got = epc_runtime::par_map_coarse(&RuntimeConfig::new(threads), &items, |&x| {
            (x * x + 1.0).to_bits()
        });
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn par_reduce_float_sum_is_bitwise_stable_across_threads(
        items in prop::collection::vec(-1.0e6f64..1.0e6, 0..400),
        threads in 2usize..9,
        chunk_size in 1usize..64,
    ) {
        // Chunk boundaries depend only on chunk_size, so the operation
        // tree — and therefore every rounding step — is thread-invariant.
        let serial = epc_runtime::par_reduce(
            &RuntimeConfig::sequential(),
            &items,
            chunk_size,
            || 0.0f64,
            |acc, &x| acc + x,
            |a, b| a + b,
        );
        let parallel = epc_runtime::par_reduce(
            &RuntimeConfig::new(threads),
            &items,
            chunk_size,
            || 0.0f64,
            |acc, &x| acc + x,
            |a, b| a + b,
        );
        prop_assert_eq!(parallel.to_bits(), serial.to_bits());
    }

    #[test]
    fn par_reduce_histogram_matches_serial_fold(
        items in prop::collection::vec(0usize..16, 0..400),
        threads in 1usize..9,
        chunk_size in 1usize..64,
    ) {
        let mut expected = vec![0usize; 16];
        for &x in &items {
            expected[x] += 1;
        }
        let got = epc_runtime::par_reduce(
            &RuntimeConfig::new(threads),
            &items,
            chunk_size,
            || vec![0usize; 16],
            |mut acc, &x| {
                acc[x] += 1;
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        prop_assert_eq!(got, expected);
    }
}
