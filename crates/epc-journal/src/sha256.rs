//! Minimal SHA-256 (FIPS 180-4), dependency-free.
//!
//! The workspace is offline (no registry), so content hashing is
//! implemented here rather than pulled in. [`Sha256`] is the incremental
//! hasher (it is an [`std::io::Write`] sink, so a writer can stream text
//! into it without materializing it); [`hash_hex`] is its one-shot
//! wrapper. Both run the one compression function below.

use std::io;

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Runs the compression function over one 64-byte block. Written without
/// index expressions (the hasher sits on the ingest path the panic audit
/// polices): the message schedule reads its four taps through a slice
/// pattern over the words already computed.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().unwrap_or_default());
    }
    for i in 16..64 {
        let (done, todo) = w.split_at_mut(i);
        // w[i] = w[i-16] + σ0(w[i-15]) + w[i-7] + σ1(w[i-2])
        if let ([.., w16, w15, _, _, _, _, _, _, _, w7, _, _, _, _, w2, _], Some(wi)) =
            (&*done, todo.first_mut())
        {
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            *wi = w16.wrapping_add(s0).wrapping_add(*w7).wrapping_add(s1);
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, wi) in K.iter().zip(&w) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*k)
            .wrapping_add(*wi);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Incremental SHA-256: [`Sha256::update`] in any splits, then
/// [`Sha256::finish_hex`]. The digest depends only on the concatenated
/// bytes, never on how they were split.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current, not yet compressed block.
    block: [u8; 64],
    /// How many bytes of `block` are filled (always below 64).
    filled: usize,
    /// Total message length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A hasher over the empty message.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }

    /// Feeds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.filled > 0 {
            let (head, rest) = bytes.split_at((64 - self.filled).min(bytes.len()));
            if let Some(dst) = self.block.get_mut(self.filled..self.filled + head.len()) {
                dst.copy_from_slice(head);
            }
            self.filled += head.len();
            if self.filled < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            self.filled = 0;
            bytes = rest;
        }
        let mut blocks = bytes.chunks_exact(64);
        for block in &mut blocks {
            if let Ok(block) = block.try_into() {
                compress(&mut self.state, block);
            }
        }
        let rest = blocks.remainder();
        if let Some(dst) = self.block.get_mut(..rest.len()) {
            dst.copy_from_slice(rest);
        }
        self.filled = rest.len();
    }

    /// The digest of everything fed so far, as a lowercase hex string.
    pub fn finish_hex(mut self) -> String {
        // Padding: 0x80, zeros up to 56 bytes mod 64, then the bit length
        // as a big-endian u64.
        let bit_len = self.len.wrapping_mul(8);
        let zeros = (64 + 55 - self.filled) % 64;
        self.update(&[0x80]);
        self.update([0; 63].get(..zeros).unwrap_or_default());
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.filled, 0);
        let mut out = String::with_capacity(64);
        for word in self.state {
            for byte in word.to_be_bytes() {
                out.push_str(&format!("{byte:02x}"));
            }
        }
        out
    }
}

impl io::Write for Sha256 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The SHA-256 digest of `bytes`, as a lowercase hex string.
pub fn hash_hex(bytes: &[u8]) -> String {
    let mut hasher = Sha256::new();
    hasher.update(bytes);
    hasher.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-shot digest the incremental hasher replaced: whole blocks,
    /// then one or two padding blocks built in a stack buffer.
    fn oracle_hash_hex(bytes: &[u8]) -> String {
        let mut state = H0;
        let mut chunks = bytes.chunks_exact(64);
        for block in &mut chunks {
            compress(&mut state, block.try_into().unwrap());
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 128];
        tail[..rest.len()].copy_from_slice(rest);
        tail[rest.len()] = 0x80;
        let tail_len = if rest.len() < 56 { 64 } else { 128 };
        let bit_len = (bytes.len() as u64) * 8;
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        for block in tail[..tail_len].chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        state
            .iter()
            .flat_map(|w| w.to_be_bytes())
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    proptest! {
        #[test]
        fn any_split_gives_the_one_shot_digest(
            len in 0usize..300,
            fill in 0u8..=255,
            cuts in prop::collection::vec(0usize..300, 0..8),
        ) {
            let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add((i * 31) as u8)).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([len]) {
                hasher.update(&data[at..cut]);
                at = cut;
            }
            let expected = oracle_hash_hex(&data);
            prop_assert_eq!(hasher.finish_hex(), expected.clone());
            prop_assert_eq!(hash_hex(&data), expected);
        }
    }

    #[test]
    fn io_write_streams_into_the_digest() {
        use std::io::Write;
        let mut hasher = Sha256::default();
        write!(hasher, "abc").unwrap();
        hasher.flush().unwrap();
        assert_eq!(hasher.finish_hex(), hash_hex(b"abc"));
    }

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn empty_input() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn padding_boundaries() {
        // 55, 56, 63, 64, 65 bytes cross every padding branch.
        for n in [55usize, 56, 63, 64, 65] {
            let data = vec![b'x'; n];
            let h = hash_hex(&data);
            assert_eq!(h.len(), 64);
            assert_ne!(h, hash_hex(&vec![b'y'; n]));
        }
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hash_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
