//! Finding the end of a string run eight bytes at a time.
//!
//! Each test reads eight bytes as one little-endian word and marks the
//! high bit of every byte that matches, with the usual borrow trick
//! (`(w - 0x01…01·n) & !w & 0x80…80` marks the bytes below `n`). A borrow
//! can mark a byte above a true match, never one below the first, so the
//! lowest mark is always exact.

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Marks the bytes of `word` below `n`, for `n <= 0x80`.
const fn below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * n as u64) & !word & HIGHS
}

/// Marks the bytes of `word` equal to `byte`.
const fn equal(word: u64, byte: u8) -> u64 {
    below(word ^ (ONES * byte as u64), 1)
}

/// The index of the first byte of `bytes` that `marks` flags a word for
/// and `hit` flags alone, or `bytes.len()` when there is none.
#[inline(always)]
fn scan(bytes: &[u8], marks: impl Fn(u64) -> u64, hit: impl Fn(u8) -> bool) -> usize {
    let mut chunks = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let marked = marks(word);
        if marked != 0 {
            return at + (marked.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let tail = chunks.remainder();
    at + tail.iter().position(|&b| hit(b)).unwrap_or(tail.len())
}

/// The index of the first byte a JSON string must escape (`"`, `\` or a
/// control character), or `bytes.len()`.
pub(crate) fn escape_end(bytes: &[u8]) -> usize {
    scan(
        bytes,
        |w| equal(w, b'"') | equal(w, b'\\') | below(w, 0x20),
        |b| matches!(b, b'"' | b'\\' | 0x00..=0x1f),
    )
}

/// The index of the first `"` or `\`, or `bytes.len()`.
pub(crate) fn quote_end(bytes: &[u8]) -> usize {
    scan(
        bytes,
        |w| equal(w, b'"') | equal(w, b'\\'),
        |b| b == b'"' || b == b'\\',
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn word_scans_agree_with_a_byte_loop(
            bytes in collection::vec(0u8..=255, 0..40),
            // Bias some bytes towards the interesting ones and the
            // values next to them.
            picks in collection::vec((0usize..40, 0usize..8), 0..4),
        ) {
            let mut bytes = bytes;
            let special = [b'"', b'\\', 0x1f, 0x20, 0x00, b'!', b'[', 0x80];
            for (at, which) in picks {
                if at < bytes.len() {
                    bytes[at] = special[which];
                }
            }
            let naive = |hit: fn(u8) -> bool| bytes.iter().position(|&b| hit(b)).unwrap_or(bytes.len());
            prop_assert_eq!(
                escape_end(&bytes),
                naive(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
            );
            prop_assert_eq!(quote_end(&bytes), naive(|b| b == b'"' || b == b'\\'));
        }
    }
}
