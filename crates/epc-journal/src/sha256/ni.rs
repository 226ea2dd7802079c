//! SHA-256 compression through the x86 SHA extensions (SHA-NI).
//!
//! This module holds the workspace's only `unsafe` code; epc-lint's rule
//! D10 flags the keyword anywhere else under `crates/`. Two operations
//! need it:
//! - calling [`digest_blocks`], which is compiled for CPU features the
//!   build does not assume. [`compress_blocks`] calls it only after
//!   run-time detection found every one of them;
//! - loading 16 message bytes into a SIMD register. Every load reads
//!   inside one 64-byte block.
//!
//! [`digest_blocks`] computes what the scalar `compress` computes block by
//! block; the tests compare the two on every message length up to 1,024
//! bytes and on random states.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
};
use std::sync::OnceLock;

/// `true` when the CPU has every feature [`digest_blocks`] is compiled
/// for. Detected once per process.
pub(super) fn available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// Compresses each whole 64-byte block of `blocks` into `state`, in order
/// (a shorter tail is not read), and returns `true`; returns `false`, with
/// `state` untouched, when the CPU lacks the SHA extensions.
pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !available() {
        return false;
    }
    // SAFETY: `available()` found sha, sse2, ssse3 and sse4.1 on this CPU,
    // the features `digest_blocks` is compiled for.
    unsafe { digest_blocks(state, blocks) };
    true
}

/// The SHA-256 compression function over each whole 64-byte block of
/// `blocks`, four rounds per step: `sha256rnds2` runs two rounds on the
/// state held as ABEF and CDGH, and `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn digest_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // `_mm_set_epi32` takes lanes high to low; lane 0 holds the first word.
    let lanes =
        |[w0, w1, w2, w3]: [u32; 4]| _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32);
    // Round constants, four per register, in the 4 × 4 steps' order.
    let mut k = [[_mm_setzero_si128(); 4]; 4];
    for (kv, k4) in k.iter_mut().flatten().zip(super::K.chunks_exact(4)) {
        if let [a, b, c, d] = *k4 {
            *kv = lanes([a, b, c, d]);
        }
    }
    let [k_first, k_rest @ ..] = k;
    // Byte order within each 32-bit lane reversed: big-endian words.
    let swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes([f, e, b, a]);
    let mut cdgh = lanes([h, g, d, c]);

    // Four rounds on the schedule words `$w` with their constants `$k`.
    macro_rules! rounds4 {
        ($w:expr, $k:expr) => {{
            let wk = _mm_add_epi32($w, $k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }
    // The next four schedule words from the sixteen before them.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let at = block.as_ptr();
        // SAFETY: `block` is 64 readable bytes, so each 16-byte load at
        // offset 0, 16, 32 or 48 stays inside it; `loadu` needs no
        // alignment.
        let (mut w0, mut w1, mut w2, mut w3) = unsafe {
            (
                _mm_shuffle_epi8(_mm_loadu_si128(at.cast::<__m128i>()), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(16).cast::<__m128i>()), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(32).cast::<__m128i>()), swap),
                _mm_shuffle_epi8(_mm_loadu_si128(at.add(48).cast::<__m128i>()), swap),
            )
        };
        let [ka, kb, kc, kd] = k_first;
        rounds4!(w0, ka);
        rounds4!(w1, kb);
        rounds4!(w2, kc);
        rounds4!(w3, kd);
        for [ka, kb, kc, kd] in k_rest {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(w0, ka);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(w1, kb);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(w2, kc);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(w3, kd);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3) as u32,
        _mm_extract_epi32(abef, 2) as u32,
        _mm_extract_epi32(cdgh, 3) as u32,
        _mm_extract_epi32(cdgh, 2) as u32,
        _mm_extract_epi32(abef, 1) as u32,
        _mm_extract_epi32(abef, 0) as u32,
        _mm_extract_epi32(cdgh, 1) as u32,
        _mm_extract_epi32(cdgh, 0) as u32,
    ];
}
