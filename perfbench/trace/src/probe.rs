//! The host-speed probe: a fixed memory-bound kernel, independent of the
//! program under test, whose run time tracks how fast this host runs at
//! the moment.
//!
//! On a shared host the drivers' speed drifts by tens of percent over
//! minutes with the neighbours' load. Timed between the passes of a run,
//! the probe measures that drift, so the runner can report pass times
//! scaled to a fixed probe time. The kernel shuffles a 64 MiB index array
//! and chases 300,000 dependent loads through it; among the kernels tried
//! (cache-resident chase, allocation churn, pure arithmetic) this one
//! tracked the drivers' own drift most closely.

const WORDS: usize = 16 << 20;
const STEPS: usize = 300_000;

fn xorshift(x: u64) -> u64 {
    let x = x ^ (x << 13);
    let x = x ^ (x >> 7);
    x ^ (x << 17)
}

/// Shuffles `words` indices into a random permutation, then follows it
/// for `steps` dependent loads; returns a checksum of the path.
pub fn chase(words: usize, steps: usize) -> u64 {
    let words = u32::try_from(words).expect("fewer than 2^32 words");
    let mut next: Vec<u32> = (0..words).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for i in (1..next.len()).rev() {
        x = xorshift(x);
        next.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let mut at = 0u32;
    let mut sum = 0u64;
    for _ in 0..steps {
        at = next[at as usize];
        sum = sum.wrapping_add(u64::from(at));
    }
    sum
}

/// The probe kernel at its fixed size.
pub fn kernel() -> u64 {
    chase(WORDS, STEPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_is_deterministic_and_follows_a_permutation() {
        assert_eq!(chase(4096, 10_000), chase(4096, 10_000));
        assert_ne!(chase(4096, 10_000), chase(4096, 10_001));
        // One step from index 0 reads the shuffled slot 0.
        assert!(chase(4096, 1) < 4096);
    }
}
