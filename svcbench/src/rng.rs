//! A small seeded generator (SplitMix64), so the inputs a seed produces
//! never depend on the code under test or on a crate's version.

/// SplitMix64: fast, and every seed gives a well-mixed stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of
    /// one seed (the validate pool and the page pool, say).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `n` values spread over `lo..=hi` by stratified sampling: one draw
/// per equal-width stratum, shuffled. Two seeds then give mixes with
/// the same size distribution, which keeps run-to-run spread low.
pub fn stratified(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let width = (hi - lo + 1) as f64;
    let mut out: Vec<u64> = (0..n)
        .map(|j| {
            let at = (j as f64 + rng.unit()) / n as f64;
            (lo + (at * width) as u64).min(hi)
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_covers_every_stratum() {
        let mut r = Rng::new(1, 0);
        let mut v = stratified(&mut r, 10, 1, 100);
        v.sort_unstable();
        for (j, x) in v.iter().enumerate() {
            assert!(
                (1 + 10 * j as u64..=10 * (j as u64 + 1)).contains(x),
                "{v:?}"
            );
        }
    }
}
