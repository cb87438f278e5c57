//! Vendored SHA-256 (FIPS 180-4), in the spirit of the repo's other
//! offline stand-ins: the container has no registry access, and the hash
//! chain must not depend on one. One-shot over small inputs (event lines
//! are a few hundred bytes), checked against the standard test vectors.
//!
//! Two compression functions share one padding routine:
//!
//! * on x86-64 CPUs with the SHA extensions (`sha`, plus the SSE levels
//!   its shuffles need), [`sha256`] runs the `sha256rnds2`/`sha256msg1`/
//!   `sha256msg2` instructions — detected at run time, once per call
//!   through std's cached feature probe, so one binary serves every CPU;
//! * everywhere else it runs the portable scalar `compress`, which is
//!   also the tests' oracle (they call it directly, so the fallback is
//!   exercised on SHA-capable hosts too).
//!
//! Digests cannot differ between the two: both compute the same FIPS
//! 180-4 function of the same padded blocks, and the tests pin the
//! hardware path to the scalar one for every input length up to several
//! blocks plus random multi-block inputs. Chain tips are therefore
//! independent of which CPU sealed the stream.

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
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

/// The SHA-NI compression function.
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every feature [`compress_blocks`] enables.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// `W[i..i + 4]` for the next four rounds from the previous sixteen
    /// message words (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compress every 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`
    /// ([`detected`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 readable bytes; loadu has no alignment
        // requirement.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // The instructions keep the working variables as ABEF and CDGH.
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 readable bytes; loadu has no alignment
            // requirement.
            let mut w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            for word in &mut w {
                *word = _mm_shuffle_epi8(*word, bswap);
            }
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                // SAFETY: `K` is 256 readable bytes; `i < 16`.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().cast::<__m128i>().add(i)) };
                let wk = _mm_add_epi32(w[i % 4], k);
                // Two rounds on the low words, two on the high ones.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; storeu has no alignment
        // requirement.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgef);
        }
    }
}

/// SHA-256 of `data` with `compress_blocks` applied to every 64-byte
/// block: the message's whole blocks, then its padded tail.
fn digest(data: &[u8], mut compress_blocks: impl FnMut(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    compress_blocks(&mut state, &data[..whole]);

    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let rem = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64) * 8;
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(&mut state, &tail[..tail_len]);

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 through the portable compression function.
fn sha256_scalar(data: &[u8]) -> [u8; 32] {
    digest(data, |state, blocks| {
        for block in blocks.chunks_exact(64) {
            compress(state, block);
        }
    })
}

/// SHA-256 digest of `data`: the SHA-NI kernel where the CPU has it,
/// the scalar one otherwise (see the module docs).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    #[cfg(target_arch = "x86_64")]
    if ni::detected() {
        return digest(data, |state, blocks| {
            // SAFETY: `detected` confirmed every feature the kernel enables.
            unsafe { ni::compress_blocks(state, blocks) }
        });
    }
    sha256_scalar(data)
}

/// The two lowercase hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
        b += 1;
    }
    pairs
};

/// `digest` in lowercase hex, a table lookup per byte.
pub(crate) fn hex_digits(digest: &[u8; 32]) -> [u8; 64] {
    let mut out = [0; 64];
    for (pair, &b) in out.chunks_exact_mut(2).zip(digest) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
    }
    out
}

/// Write `digest` as lowercase hex into `out` and return it as text.
pub(crate) fn to_hex<'a>(digest: &[u8; 32], out: &'a mut [u8; 64]) -> &'a str {
    *out = hex_digits(digest);
    std::str::from_utf8(out).expect("hex digits are ASCII")
}

/// Lowercase hex digest of `data` — the form event lines embed.
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data), &mut [0; 64]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        to_hex(&digest, &mut [0; 64]).to_string()
    }

    /// The FIPS vectors through both the dispatched and the scalar path,
    /// so the fallback is tested on SHA-NI hosts too.
    #[test]
    fn fips_vectors() {
        for (input, want) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ] {
            assert_eq!(sha256_hex(input), want);
            assert_eq!(hex(sha256_scalar(input)), want);
        }
    }

    /// The pair table gives what a nibble at a time gives, for every
    /// byte and for random digests.
    #[test]
    fn hex_table_matches_the_nibble_loop() {
        fn nibbles(digest: &[u8; 32]) -> [u8; 64] {
            const DIGITS: &[u8; 16] = b"0123456789abcdef";
            let mut out = [0; 64];
            for (pair, b) in out.chunks_exact_mut(2).zip(digest) {
                pair[0] = DIGITS[(b >> 4) as usize];
                pair[1] = DIGITS[(b & 0xf) as usize];
            }
            out
        }
        let mut digest = [0u8; 32];
        for b in 0..=255u8 {
            digest[usize::from(b) % 32] = b;
            assert_eq!(hex_digits(&digest), nibbles(&digest), "byte {b:#04x}");
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..1_000 {
            for byte in digest.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *byte = x as u8;
            }
            assert_eq!(hex_digits(&digest), nibbles(&digest));
        }
    }

    #[test]
    fn multi_block_input() {
        // 200 bytes crosses the one-block padding boundary twice over.
        let data = vec![0x61u8; 200];
        // Reference: hashing in one shot must equal the known digest of
        // 'a' * 200 (computed with a independent implementation).
        assert_eq!(
            sha256_hex(&data),
            "c2a908d98f5df987ade41b5fce213067efbcc21ef2240212a41e54b5e7c28ae5"
        );
        assert_eq!(hex(sha256_scalar(&data)), sha256_hex(&data));
    }

    #[test]
    fn length_boundaries_are_padded_correctly() {
        // 55/56/63/64 bytes straddle the "length fits in this block"
        // cutover; each must produce a distinct, stable digest.
        let digests: Vec<String> = [55usize, 56, 63, 64, 65]
            .iter()
            .map(|&n| sha256_hex(&vec![0u8; n]))
            .collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(
            sha256_hex(&[0u8; 64]),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }

    /// The dispatched digest equals the scalar one for every length
    /// 0..=300 (every padding case, up to five blocks) and for random
    /// multi-block inputs.
    #[test]
    fn dispatched_path_equals_scalar() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut byte = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        };
        let data: Vec<u8> = (0..300).map(|_| byte()).collect();
        for n in 0..=data.len() {
            assert_eq!(sha256(&data[..n]), sha256_scalar(&data[..n]), "length {n}");
        }
        for _ in 0..64 {
            let n = 64 + (byte() as usize) * 16 + (byte() as usize);
            let data: Vec<u8> = (0..n).map(|_| byte()).collect();
            assert_eq!(sha256(&data), sha256_scalar(&data), "length {n}");
        }
    }
}
