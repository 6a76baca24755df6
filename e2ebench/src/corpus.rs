//! The benchmark's inputs: a fixed circuit corpus per workload, and the
//! seeded request sequence that presents it to the server.
//!
//! The corpus of each workload is generated by `qca-workloads` from fixed
//! base seeds, so every run of a workload asks for the same solver work
//! whatever `--seed` is. Solve cost per circuit spans two orders of
//! magnitude and a run holds only tens of solves, so a seed-dependent
//! corpus would move `circuits_per_s` by more than any regression bound.
//! The seed sets what can vary without changing the work: the order of the
//! requests, and on `hot-tiered` the Zipf draw sequence.

use qca_adapt::Objective;
use qca_circuit::{qasm, Circuit};
use qca_workloads::{
    quantum_volume, random_template_circuit, topology_stress, DEFAULT_TEMPLATE_GATES,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct uncached circuits of the paper's families, budgeted search.
    ColdAdapt,
    /// `exact=1` solves; fidelity ones also carry a checked DRAT certificate.
    ExactProof,
    /// Zipf-popular batches served from the LRU and the persistent store.
    HotTiered,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdAdapt,
        Workload::ExactProof,
        Workload::HotTiered,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAdapt => "cold-adapt",
            Workload::ExactProof => "exact-proof",
            Workload::HotTiered => "hot-tiered",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Circuits per hot-tiered batch request. Each circuit is handed to the
/// worker thread and back, so on a shared 2-vCPU host one descheduled
/// thread can stall a request by milliseconds; with 32-circuit batches
/// (~2.5 ms) that moved the tail latency by 4x between runs, with 128 it is
/// a fraction of the request.
pub const HOT_BATCH: usize = 128;
/// Distinct circuits (cache keys) in the hot working set.
pub const HOT_CIRCUITS: usize = 256;
/// The server's LRU capacity on hot-tiered, well below the working set so
/// the popular head hits the LRU and the tail is read from the store.
pub const HOT_LRU: usize = 64;
/// Circuits per store-filling batch; the server's queue must hold one.
pub const POPULATE_BATCH: usize = 64;
const _: () = assert!(
    HOT_CIRCUITS > 2 * HOT_LRU,
    "the tail must fall to the store"
);
/// Batches per hot-tiered round.
const HOT_BATCHES: usize = 160;
/// Zipf exponent of the hot popularity distribution.
const HOT_ZIPF_S: f64 = 1.0;

/// Base seed of every generated circuit; fixed so the work never depends
/// on `--seed`.
const CORPUS_SEED: u64 = 0x5eed_2023;

const OBJECTIVES: [Objective; 3] = [
    Objective::Fidelity,
    Objective::IdleTime,
    Objective::Combined,
];

/// One circuit sent to the server, with the options it is sent under.
#[derive(Debug, Clone)]
pub struct Item {
    /// Generator family, e.g. `rand-3q-d20`.
    pub family: String,
    /// The source circuit.
    pub circuit: Circuit,
    /// Its QASM text, exactly as sent.
    pub qasm: String,
    /// Solver objective.
    pub objective: Objective,
    /// `exact=1`: search to proven optimality.
    pub exact: bool,
    /// `verify=1`: the server audits the answer, including its certificate.
    pub verify: bool,
    /// `coupling=line`: route onto a line of the circuit's width.
    pub line: bool,
}

impl Item {
    fn new(family: String, circuit: Circuit, objective: Objective) -> Item {
        Item {
            family,
            qasm: qasm::to_qasm(&circuit),
            circuit,
            objective,
            exact: false,
            verify: false,
            line: false,
        }
    }

    /// The query string selecting this item's options.
    pub fn query(&self) -> String {
        let objective = match self.objective {
            Objective::Fidelity => "fidelity",
            Objective::IdleTime => "idle",
            Objective::Combined => "combined",
        };
        let mut q = format!("objective={objective}");
        if self.exact {
            q.push_str("&exact=1");
        }
        if self.verify {
            q.push_str("&verify=1");
        }
        if self.line {
            q.push_str("&coupling=line");
        }
        q
    }
}

/// One HTTP request of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Path and query.
    pub target: String,
    /// Request body: one QASM program, or several separated by `// ---`.
    pub body: String,
    /// Indices into [`Plan::items`], in body order.
    pub items: Vec<usize>,
}

/// Everything one round sends, in order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The corpus.
    pub items: Vec<Item>,
    /// The requests of one round.
    pub requests: Vec<Request>,
}

impl Plan {
    /// Builds the plan of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut rng = SplitMix64::new(seed);
        match workload {
            Workload::ColdAdapt => single_requests(cold_corpus(), &mut rng),
            Workload::ExactProof => single_requests(exact_corpus(), &mut rng),
            Workload::HotTiered => hot_plan(&mut rng),
        }
    }

    /// Circuits sent per round.
    pub fn circuits(&self) -> usize {
        self.requests.iter().map(|r| r.items.len()).sum()
    }

    /// Batch requests that adapt every item once: what the benchmark sends
    /// to fill the store before the timed rounds of hot-tiered.
    pub fn populate_requests(&self) -> Vec<Request> {
        let ids: Vec<usize> = (0..self.items.len()).collect();
        ids.chunks(POPULATE_BATCH)
            .map(|chunk| batch_request(&self.items, chunk.to_vec()))
            .collect()
    }
}

fn family(name: &str, seed: u64) -> Circuit {
    match name {
        "rand-3q-d20" => random_template_circuit(3, 20, seed, &DEFAULT_TEMPLATE_GATES, true),
        "rand-4q-d20" => random_template_circuit(4, 20, seed, &DEFAULT_TEMPLATE_GATES, true),
        "rand-3q-d40" => random_template_circuit(3, 40, seed, &DEFAULT_TEMPLATE_GATES, true),
        "qv-4x2" => quantum_volume(4, 2, seed),
        other => unreachable!("unknown family {other}"),
    }
}

/// The paper's Fig. 5/6 families.
const PAPER_FAMILIES: [&str; 4] = ["rand-3q-d20", "rand-4q-d20", "rand-3q-d40", "qv-4x2"];
/// `topology_stress` circuits routed onto a line on cold-adapt; with the
/// 16 paper-family requests this makes an odd request count, so a round's
/// median latency is one request's, not the gap between two.
const COLD_ROUTED: u64 = 5;

/// Per paper family: one circuit under all three objectives and a second
/// under the fidelity objective only. A budgeted idle or combined solve of
/// these circuits takes 0.2–1.7 s against 2–90 ms for fidelity, so more
/// scheduling solves would leave too few requests per run for a tail.
fn cold_corpus() -> Vec<Item> {
    let mut items = Vec::new();
    for (f, name) in PAPER_FAMILIES.iter().enumerate() {
        let seed = CORPUS_SEED + 100 * f as u64;
        let circuit = family(name, seed);
        for objective in OBJECTIVES {
            items.push(Item::new(name.to_string(), circuit.clone(), objective));
        }
        let second = family(name, seed + 1);
        items.push(Item::new(name.to_string(), second, Objective::Fidelity));
    }
    for i in 0..COLD_ROUTED {
        let circuit = topology_stress(4, 8, CORPUS_SEED + 900 + i);
        let mut item = Item::new("stress-4q-d8".into(), circuit, OBJECTIVES[i as usize % 3]);
        item.line = true;
        items.push(item);
    }
    items
}

/// Certified fidelity proofs per paper family on exact-proof.
const EXACT_FIDELITY_PER_FAMILY: u64 = 2;
/// Circuits with uncertified idle proofs on exact-proof, all but the last
/// also with a combined proof (an odd request count, as on cold-adapt).
/// Small rand-3q circuits: a certified scheduling proof can take minutes
/// to check.
const EXACT_SCHEDULE: u64 = 5;

fn exact_corpus() -> Vec<Item> {
    let mut items = Vec::new();
    for (f, name) in PAPER_FAMILIES.iter().enumerate() {
        for i in 0..EXACT_FIDELITY_PER_FAMILY {
            let circuit = family(name, CORPUS_SEED + 1000 + 100 * f as u64 + i);
            let mut item = Item::new(name.to_string(), circuit, Objective::Fidelity);
            item.exact = true;
            item.verify = true;
            items.push(item);
        }
    }
    for i in 0..EXACT_SCHEDULE {
        let circuit =
            random_template_circuit(3, 6, CORPUS_SEED + 2000 + i, &DEFAULT_TEMPLATE_GATES, true);
        let objectives = if i + 1 < EXACT_SCHEDULE {
            &[Objective::IdleTime, Objective::Combined][..]
        } else {
            &[Objective::IdleTime][..]
        };
        for &objective in objectives {
            let mut item = Item::new("rand-3q-d6".into(), circuit.clone(), objective);
            item.exact = true;
            items.push(item);
        }
    }
    items
}

/// One request per item, in a seeded order.
fn single_requests(items: Vec<Item>, rng: &mut SplitMix64) -> Plan {
    let mut order: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut order);
    let requests = order
        .into_iter()
        .map(|i| Request {
            target: format!("/v1/adapt?{}", items[i].query()),
            body: items[i].qasm.clone(),
            items: vec![i],
        })
        .collect();
    Plan { items, requests }
}

fn batch_request(items: &[Item], ids: Vec<usize>) -> Request {
    let body: Vec<&str> = ids.iter().map(|&i| items[i].qasm.as_str()).collect();
    Request {
        target: format!("/v1/batch?{}", items[ids[0]].query()),
        body: body.join("// ---\n"),
        items: ids,
    }
}

/// The hot working set: small rand-3q circuits under the fidelity
/// objective, whose solves take milliseconds (a budgeted idle or combined
/// solve of the same circuits takes ~0.3 s, which would make filling the
/// store cost more than the timed run).
fn hot_plan(rng: &mut SplitMix64) -> Plan {
    let items: Vec<Item> = (0..HOT_CIRCUITS as u64)
        .map(|i| {
            let depth = 4 + (i as usize % 9);
            let seed = CORPUS_SEED + 5000 + i;
            let c = random_template_circuit(3, depth, seed, &DEFAULT_TEMPLATE_GATES, true);
            Item::new(format!("rand-3q-d{depth}"), c, Objective::Fidelity)
        })
        .collect();
    // Popularity rank -> circuit. Fixed like the corpus: with a seeded
    // mapping, the size of whichever circuit drew the head rank moved
    // circuits_per_s by 20% between seeds.
    let mut by_rank: Vec<usize> = (0..HOT_CIRCUITS).collect();
    SplitMix64::new(CORPUS_SEED).shuffle(&mut by_rank);
    let zipf = Zipf::new(HOT_CIRCUITS, HOT_ZIPF_S);
    let requests = (0..HOT_BATCHES)
        .map(|_| {
            let ids = (0..HOT_BATCH).map(|_| by_rank[zipf.sample(rng)]).collect();
            batch_request(&items, ids)
        })
        .collect();
    Plan { items, requests }
}

/// SplitMix64: a small, fully specified generator, so a seed means the same
/// sequence on every build.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf distribution over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for workload in Workload::ALL {
            let a = Plan::new(workload, 7);
            let b = Plan::new(workload, 7);
            assert_eq!(a.requests, b.requests, "{}", workload.name());
            let c = Plan::new(workload, 8);
            assert_ne!(a.requests, c.requests, "{}", workload.name());
        }
    }

    #[test]
    fn seed_changes_order_not_corpus() {
        for workload in Workload::ALL {
            let corpus = |seed| {
                Plan::new(workload, seed)
                    .items
                    .into_iter()
                    .map(|i| i.query() + &i.qasm)
                    .collect::<Vec<_>>()
            };
            assert_eq!(corpus(1), corpus(2), "{}", workload.name());
        }
        for workload in [Workload::ColdAdapt, Workload::ExactProof] {
            let bodies = |seed| {
                let mut v: Vec<String> = Plan::new(workload, seed)
                    .requests
                    .into_iter()
                    .map(|r| r.target + &r.body)
                    .collect();
                v.sort();
                v
            };
            assert_eq!(bodies(1), bodies(2), "{}", workload.name());
        }
    }

    #[test]
    fn cold_requests_are_distinct() {
        let plan = Plan::new(Workload::ColdAdapt, 3);
        let mut seen: Vec<(String, String)> = plan
            .requests
            .iter()
            .map(|r| (r.target.clone(), r.body.clone()))
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), plan.requests.len());
    }

    #[test]
    fn hot_batches_draw_from_a_populated_working_set() {
        let plan = Plan::new(Workload::HotTiered, 11);
        assert_eq!(plan.items.len(), HOT_CIRCUITS);
        for r in &plan.requests {
            assert_eq!(r.items.len(), HOT_BATCH);
            assert!(r.items.iter().all(|&i| i < HOT_CIRCUITS));
        }
        let populate = plan.populate_requests();
        let covered: usize = populate.iter().map(|r| r.items.len()).sum();
        assert_eq!(covered, plan.items.len());
    }

    #[test]
    fn zipf_sequence_is_seeded_and_head_heavy() {
        let zipf = Zipf::new(96, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let seq = draw(5);
        let count = |k| seq.iter().filter(|&&r| r == k).count();
        assert!(seq.iter().all(|&r| r < 96));
        assert!(count(0) > count(1) && count(1) > count(10) && count(10) > count(90));
        // P(rank 0) = 1 / H(96) ≈ 0.193.
        let head = count(0) as f64 / seq.len() as f64;
        assert!((head - 0.193).abs() < 0.02, "{head}");
    }

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0, from the published reference generator.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }
}
