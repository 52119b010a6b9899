//! The four workloads and their pre-drawn arrival traces.
//!
//! Every workload is a closed loop in slot time: each slot issues that
//! slot's subscribes, ticks, encodes and runs the workload's extra calls,
//! and the next slot starts when this one finishes. The load per slot is
//! therefore fixed by the seed, not by how fast the station runs. All the
//! numbers that shape a workload live in [`Workload::spec`]; README.md
//! records why each one was chosen.

use airsched_server::faults::FaultPlan;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many waiting clients per page: the waiting layer does the work.
    DenseDrain,
    /// Many channels, large payloads, few clients: the wire does the work.
    WideWire,
    /// Catalogue churn and injected faults: replans and degraded modes.
    ChurnFaults,
    /// A journaled, checkpointed station that crashes and resumes.
    Journaled,
}

/// Journal cadence of the `journaled` workload.
#[derive(Debug, Clone, Copy)]
pub struct Journal {
    /// The bench calls `checkpoint()` after every this many slots.
    pub checkpoint_every: u64,
    /// A simulated crash follows every this many checkpoints...
    pub crash_after_checkpoints: u64,
    /// ...this many slots after the checkpoint.
    pub crash_delay: u64,
}

/// Everything that shapes one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Transmitters.
    pub channels: u32,
    /// Largest expected time; the catalogue's bands are a quarter, a half
    /// and all of it.
    pub cycle: u64,
    /// Pages in the catalogue.
    pub pages: u32,
    /// Bytes of every page payload.
    pub payload_bytes: usize,
    /// Poisson mean of subscribes per slot.
    pub mean_subscribes: f64,
    /// Slots in one round; every round replays the same trace on a fresh
    /// station.
    pub round_slots: u64,
    /// Leading slots of a round that run and are checked but not timed,
    /// while the waiting population fills up.
    pub warmup_slots: u64,
    /// Receivers, one on every `channels / panel`-th channel.
    pub panel: u32,
    /// Random channel outages, stalls and corruption from a fixed storm.
    pub faults: bool,
    /// Every this many slots the oldest page expires and a new one is
    /// published in its band.
    pub churn_every: Option<u64>,
    /// Set for the journaled workload.
    pub journal: Option<Journal>,
}

/// Zipf exponent of page popularity.
const ZIPF_THETA: f64 = 0.8;

/// Seed of the fault storm of the faulted workload.
const FAULT_SEED: u64 = 0x00FA_0175;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DenseDrain,
        Workload::WideWire,
        Workload::ChurnFaults,
        Workload::Journaled,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseDrain => "dense-drain",
            Workload::WideWire => "wide-wire",
            Workload::ChurnFaults => "churn-faults",
            Workload::Journaled => "journaled",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::DenseDrain => Spec {
                channels: 8,
                cycle: 4096,
                pages: 6720,
                payload_bytes: 64,
                mean_subscribes: 256.0,
                round_slots: 65_536,
                warmup_slots: 4096,
                panel: 1,
                faults: false,
                churn_every: None,
                journal: None,
            },
            Workload::WideWire => Spec {
                channels: 32,
                cycle: 1024,
                pages: 6720,
                payload_bytes: 512,
                mean_subscribes: 2.0,
                round_slots: 65_536,
                warmup_slots: 1024,
                panel: 8,
                faults: false,
                churn_every: None,
                journal: None,
            },
            Workload::ChurnFaults => Spec {
                channels: 8,
                cycle: 1024,
                pages: 1680,
                payload_bytes: 64,
                mean_subscribes: 32.0,
                round_slots: 4096,
                warmup_slots: 1024,
                panel: 1,
                faults: true,
                churn_every: Some(64),
                journal: None,
            },
            Workload::Journaled => Spec {
                channels: 8,
                cycle: 1024,
                pages: 1680,
                payload_bytes: 64,
                mean_subscribes: 16.0,
                round_slots: 8192,
                warmup_slots: 1024,
                panel: 1,
                faults: false,
                churn_every: None,
                journal: Some(Journal {
                    checkpoint_every: 4096,
                    crash_after_checkpoints: 1,
                    crash_delay: 2048,
                }),
            },
        }
    }
}

impl Spec {
    /// Expected time of the page at catalogue index `index`: the bands
    /// take turns, so each holds a third of the pages.
    pub fn expected_time(&self, index: u32) -> u64 {
        [self.cycle / 4, self.cycle / 2, self.cycle][(index % 3) as usize]
    }

    /// The fault plan of a faulted workload. Its seed is part of the
    /// workload, not of the run: over one round a storm drawn per run
    /// seed swung replans, and with them `slots_per_s`, by a quarter
    /// between seeds. The run seed varies the clients instead.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.then(|| {
            FaultPlan::seeded(FAULT_SEED)
                .with_outage(0.002)
                .with_recovery(0.05)
                .with_stalls(0.01)
                .with_corruption(0.02)
        })
    }

    /// Channels the receiver panel listens on, ascending.
    pub fn panel_channels(&self) -> Vec<usize> {
        let stride = (self.channels / self.panel) as usize;
        (0..self.panel as usize).map(|r| r * stride).collect()
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws from a discrete distribution by inverting its cumulative table.
fn draw(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.unit() * cdf[cdf.len() - 1];
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Cumulative Poisson probabilities out to twelve standard deviations.
fn poisson_cdf(mean: f64) -> Vec<f64> {
    let top = (mean + 12.0 * mean.sqrt() + 12.0).ceil() as usize;
    let mut p = (-mean).exp();
    let mut acc = p;
    let mut cdf = vec![acc];
    for k in 1..=top {
        p *= mean / k as f64;
        acc += p;
        cdf.push(acc);
    }
    cdf
}

/// Cumulative Zipf weights `1 / (rank + 1)^θ` over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..n)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_THETA);
            acc
        })
        .collect()
}

/// One round's subscribes, drawn before the clock starts: for each slot,
/// the catalogue indices its clients subscribe to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrivals {
    starts: Vec<u32>,
    indices: Vec<u16>,
}

impl Arrivals {
    /// Draws the trace of `spec` from `seed`. A slot's count is Poisson;
    /// each subscribe picks a catalogue index by Zipf rank over a seeded
    /// permutation of the catalogue, so the popular pages differ by seed.
    /// Rank `r` always falls in band `r mod 3`: were the popular pages free
    /// to cluster in one band, the mean wait and the waiting population
    /// would swing by seed far more than any timing the bench resolves.
    pub fn draw(spec: &Spec, seed: u64) -> Self {
        assert!(
            spec.pages <= u32::from(u16::MAX) + 1,
            "catalogue indices are stored as u16"
        );
        let mut rng = Rng::new(seed, 1);
        let mut bands: [Vec<u16>; 3] = Default::default();
        for i in 0..spec.pages {
            bands[(i % 3) as usize].push(u16::try_from(i).expect("checked above"));
        }
        for band in &mut bands {
            for i in (1..band.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                band.swap(i, j);
            }
        }
        let longest = bands.iter().map(Vec::len).max().unwrap_or(0);
        let order: Vec<u16> = (0..longest)
            .flat_map(|i| bands.iter().filter_map(move |b| b.get(i).copied()))
            .collect();
        let counts = poisson_cdf(spec.mean_subscribes);
        let ranks = zipf_cdf(order.len());
        let slots = usize::try_from(spec.round_slots).expect("round fits in memory");
        let mut starts = Vec::with_capacity(slots + 1);
        let mut indices = Vec::with_capacity((spec.mean_subscribes * slots as f64 * 1.01) as usize);
        starts.push(0);
        for _ in 0..slots {
            for _ in 0..draw(&counts, &mut rng) {
                indices.push(order[draw(&ranks, &mut rng)]);
            }
            starts.push(u32::try_from(indices.len()).expect("trace fits u32 offsets"));
        }
        Arrivals { starts, indices }
    }

    /// Catalogue indices subscribed to in `slot`.
    pub fn slot(&self, slot: u64) -> &[u16] {
        let s = slot as usize;
        &self.indices[self.starts[s] as usize..self.starts[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_table_has_the_right_mean() {
        for mean in [2.0, 32.0, 256.0] {
            let cdf = poisson_cdf(mean);
            let total = cdf[cdf.len() - 1];
            assert!((total - 1.0).abs() < 1e-9, "mass {total}");
            let got: f64 = (0..cdf.len())
                .map(|k| k as f64 * (cdf[k] - if k == 0 { 0.0 } else { cdf[k - 1] }))
                .sum();
            assert!((got - mean).abs() < 1e-6 * mean.max(1.0), "{got} vs {mean}");
        }
    }
}
