//! The seeded request stream of the `serve-mixed` workload, and the
//! generator every workload draws its inputs from.
//!
//! Specs range over the zoo × batches {1, 8, 64} × modes {predicted,
//! measured} on `a100`. After a short all-fresh head, every block of four
//! requests holds exactly two repeats of an earlier spec, one other-mode
//! twin of an earlier spec and one fresh spec, in seeded order, so the
//! declared shares hold exactly at every block boundary. Fresh specs deal
//! the 120 (model, batch, mode) combinations from a shuffled deck, so every
//! seed's stream has the same composition and only the order differs.

use proof_models::ModelId;

pub const BATCHES: [u64; 3] = [1, 8, 64];
/// Requests at the head of the stream that are all fresh, so the first
/// repeats and twins have specs to draw on.
pub const FRESH_HEAD: usize = 4;
/// Kinds in one block after the head; the shares are 1/2, 1/4 and 1/4.
const BLOCK: [Kind; 4] = [Kind::Repeat, Kind::Repeat, Kind::Twin, Kind::Fresh];
/// A repeat picks uniformly among the most recent distinct specs sent.
pub const REPEAT_WINDOW: usize = 32;
/// Distinct (model, batch, mode) combinations: one deck of fresh specs.
pub const DECK: usize = ModelId::ALL.len() * BATCHES.len() * 2;

/// SplitMix64: a small, seedable generator with good output mixing.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A job seed that survives a JSON round trip exactly (< 2^53).
    pub fn job_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Repeat,
    Twin,
    Fresh,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Repeat => "repeat",
            Kind::Twin => "twin",
            Kind::Fresh => "fresh",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub model: ModelId,
    pub batch: u64,
    pub measured: bool,
    pub seed: u64,
}

impl Spec {
    /// The `POST /jobs` body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"model":"{}","hardware":"a100","batch":{},"mode":"{}","seed":{}}}"#,
            self.model.slug(),
            self.batch,
            if self.measured {
                "measured"
            } else {
                "predicted"
            },
            self.seed
        )
    }

    /// The same spec under the other metric mode.
    pub fn twin(self) -> Spec {
        Spec {
            measured: !self.measured,
            ..self
        }
    }
}

/// An endless, seed-determined stream of `(kind, spec)` requests.
pub struct Stream {
    rng: SplitMix64,
    /// Distinct specs in the order they were first sent.
    seen: Vec<Spec>,
    /// Indices into `seen` of fresh specs whose twin is not sent yet.
    open_twins: Vec<usize>,
    block: Vec<Kind>,
    /// Undealt fresh combinations, as indices into the deck.
    deck: Vec<usize>,
    served: usize,
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: SplitMix64::new(seed),
            seen: Vec::new(),
            open_twins: Vec::new(),
            block: Vec::new(),
            deck: Vec::new(),
            served: 0,
        }
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.rng.below(i + 1);
            v.swap(i, j);
        }
    }

    fn fresh(&mut self) -> Spec {
        if self.deck.is_empty() {
            let mut deck: Vec<usize> = (0..DECK).collect();
            self.shuffle(&mut deck);
            self.deck = deck;
        }
        let card = self.deck.pop().expect("refilled above");
        Spec {
            model: ModelId::ALL[card / (BATCHES.len() * 2)],
            batch: BATCHES[card / 2 % BATCHES.len()],
            measured: card % 2 == 1,
            seed: self.rng.job_seed(),
        }
    }

    fn next_kind(&mut self) -> Kind {
        if self.served < FRESH_HEAD {
            return Kind::Fresh;
        }
        if self.block.is_empty() {
            let mut block = BLOCK.to_vec();
            self.shuffle(&mut block);
            self.block = block;
        }
        self.block.pop().expect("refilled above")
    }
}

impl Iterator for Stream {
    type Item = (Kind, Spec);

    fn next(&mut self) -> Option<(Kind, Spec)> {
        let kind = self.next_kind();
        self.served += 1;
        let spec = match kind {
            Kind::Fresh => {
                let spec = self.fresh();
                self.open_twins.push(self.seen.len());
                self.seen.push(spec);
                spec
            }
            Kind::Twin => {
                // every fresh spec opens one twin and every block consumes
                // one, so the fresh head keeps at least three open; the
                // newest is taken, whose prefix the stage cache still holds
                let i = self
                    .open_twins
                    .pop()
                    .expect("the fresh head keeps twins open");
                let spec = self.seen[i].twin();
                self.seen.push(spec);
                spec
            }
            Kind::Repeat => {
                let window = self.seen.len().min(REPEAT_WINDOW);
                self.seen[self.seen.len() - 1 - self.rng.below(window)]
            }
        };
        Some((kind, spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<_> = Stream::new(42).take(2000).collect();
        let b: Vec<_> = Stream::new(42).take(2000).collect();
        let c: Vec<_> = Stream::new(43).take(2000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shares_are_exact_at_block_boundaries() {
        for seed in [1, 2, 3, 99] {
            let blocks = 500;
            let stream: Vec<_> = Stream::new(seed).take(FRESH_HEAD + 4 * blocks).collect();
            let count = |k: Kind| {
                stream[FRESH_HEAD..]
                    .iter()
                    .filter(|(kind, _)| *kind == k)
                    .count()
            };
            assert_eq!(count(Kind::Repeat), 2 * blocks);
            assert_eq!(count(Kind::Twin), blocks);
            assert_eq!(count(Kind::Fresh), blocks);
            assert!(stream[..FRESH_HEAD].iter().all(|(k, _)| *k == Kind::Fresh));
        }
    }

    #[test]
    fn one_deck_of_fresh_specs_covers_every_combination_once() {
        let fresh: Vec<(ModelId, u64, bool)> = Stream::new(11)
            .filter(|(k, _)| *k == Kind::Fresh)
            .take(DECK)
            .map(|(_, s)| (s.model, s.batch, s.measured))
            .collect();
        for model in ModelId::ALL {
            for batch in BATCHES {
                for measured in [false, true] {
                    let n = fresh
                        .iter()
                        .filter(|&&c| c == (model, batch, measured))
                        .count();
                    assert_eq!(n, 1, "{} b{batch} measured={measured}", model.slug());
                }
            }
        }
    }

    #[test]
    fn repeats_and_twins_refer_to_earlier_specs_and_twins_are_new() {
        let mut seen: Vec<Spec> = Vec::new();
        for (kind, spec) in Stream::new(7).take(4000) {
            match kind {
                Kind::Repeat => assert!(seen.contains(&spec)),
                Kind::Twin => {
                    assert!(seen.contains(&spec.twin()), "twin of an earlier spec");
                    assert!(!seen.contains(&spec), "a twin is never served before");
                    seen.push(spec);
                }
                Kind::Fresh => {
                    assert!(!seen.contains(&spec));
                    seen.push(spec);
                }
            }
        }
    }

    #[test]
    fn bodies_decode_as_job_specs() {
        for (_, spec) in Stream::new(5).take(64) {
            let v: serde_json::Value = serde_json::from_str(&spec.body()).unwrap();
            let job = proof_serve::AnalysisJob::from_value(&v).unwrap();
            assert_eq!(job.model, spec.model);
            assert_eq!(job.batch, spec.batch);
            assert_eq!(job.seed, spec.seed);
        }
    }
}
