//! Inputs: documents and subscriptions, every one derived from the
//! workload seed. The engines under test see only what is built here.

use std::collections::HashSet;

use vitex_baseline::{oracle, Document};
use vitex_bench::multiquery::distinct_overlapping_queries;
use vitex_xmlgen::auction::{self, AuctionConfig};
use vitex_xmlgen::protein::{self, ProteinConfig};
use vitex_xpath::QueryTree;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's E2 query over Protein documents, single-query engine.
    Protein,
    /// 1000 structurally distinct literal subscriptions (E10 shapes).
    Distinct,
    /// 1000 live region-pinned subscriptions (E11 shape), Zipf-drawn, churned.
    Churn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Protein, Workload::Distinct, Workload::Churn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Protein => "protein_single",
            Workload::Distinct => "distinct_k1000",
            Workload::Churn => "churn_zipf_k1000",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The paper's E2 query.
pub const PROTEIN_QUERY: &str = "//ProteinEntry[reference]/@id";
/// Zipf exponent of subscription popularity (`churn_zipf_k1000`).
pub const ZIPF_S: f64 = 1.0;

const REGIONS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];
const FIELDS: [&str; 4] = ["name", "quantity", "payment", "description"];

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Documents in the pool one round streams.
    pub docs: usize,
    /// Generator target size of each document.
    pub doc_bytes: u64,
    /// Live subscriptions.
    pub subs: usize,
    /// Distinct queries the subscriptions are drawn from.
    pub pool: usize,
    /// Subscriptions removed, and as many added, before each document.
    pub churn: usize,
    /// Documents streamed per round, cycling through the pool.
    pub round_docs: usize,
    /// Documents per timing sample: a round is timed in blocks of this many.
    pub block_docs: usize,
    /// Set-ups built and retired before each round, as set-up samples.
    pub setups: usize,
}

impl Shape {
    /// Whether each round is a session on a fresh engine (set up, stream,
    /// churn, drop) rather than more documents on one warm engine. Churned
    /// workloads run sessions of a fixed length, so every round replays
    /// the same work whatever the run's length. The session is long enough
    /// that removed registrations far outnumber live ones (12 800 against
    /// 1000 by its end), because an engine's per-document cost grows with
    /// every subscription it ever registered.
    pub fn sessions(&self) -> bool {
        self.churn > 0
    }

    /// The full-size shape, or the small one of `--smoke`.
    pub fn of(workload: Workload, smoke: bool) -> Shape {
        let (docs, kib, subs, pool, churn, round_docs, block_docs, setups) = match (workload, smoke)
        {
            (Workload::Protein, false) => (8, 256, 1, 1, 0, 8, 8, 1),
            (Workload::Protein, true) => (2, 16, 1, 1, 0, 2, 2, 1),
            (Workload::Distinct, false) => (6, 32, 1000, 1000, 0, 6, 2, 2),
            (Workload::Distinct, true) => (2, 16, 100, 100, 0, 2, 1, 1),
            (Workload::Churn, false) => (4, 128, 1000, 1200, 100, 128, 8, 7),
            (Workload::Churn, true) => (2, 32, 100, 200, 10, 8, 4, 1),
        };
        Shape { docs, doc_bytes: kib << 10, subs, pool, churn, round_docs, block_docs, setups }
    }
}

/// SplitMix64: a small, fast generator that the benchmark owns, so its
/// inputs do not move when the program's own RNG changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams of randomness drawn from one workload seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Document `i`'s generator seed.
    Doc = 1,
    /// The churn pool's queries.
    Pool = 2,
    /// Initial subscriptions and every churn step after them.
    Subs = 3,
}

/// The seed of element `i` of `stream` under workload seed `seed`.
pub fn derive(seed: u64, stream: Stream, i: u64) -> u64 {
    mix(mix(seed ^ mix(stream as u64)) ^ i)
}

/// One solution as the oracle and the engines both identify it.
pub type Solution = (u64, Option<String>);

/// Everything one run streams, plus the oracle's answers.
pub struct Inputs {
    /// Which workload these are.
    pub workload: Workload,
    /// Sizes.
    pub shape: Shape,
    /// Serialized documents, streamed in order every round.
    pub docs: Vec<Vec<u8>>,
    doms: Vec<Document>,
    /// Query texts; subscriptions name a query by its index here.
    pub pool: Vec<String>,
    trees: Vec<QueryTree>,
    /// Pool indices of the subscriptions registered at set-up.
    pub initial: Vec<usize>,
    zipf_cdf: Vec<f64>,
    expected: Vec<Option<Vec<Solution>>>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        let shape = Shape::of(workload, smoke);
        let docs: Vec<Vec<u8>> = (0..shape.docs)
            .map(|i| {
                let doc_seed = derive(seed, Stream::Doc, i as u64);
                let xml = match workload {
                    Workload::Protein => protein::to_string(&ProteinConfig {
                        seed: doc_seed,
                        target_bytes: shape.doc_bytes,
                        ..ProteinConfig::default()
                    }),
                    _ => auction::to_string(&AuctionConfig {
                        seed: doc_seed,
                        target_bytes: shape.doc_bytes,
                    }),
                };
                xml.into_bytes()
            })
            .collect();
        let doms: Vec<Document> = docs
            .iter()
            .map(|d| {
                let xml = std::str::from_utf8(d).expect("generators write UTF-8");
                Document::parse_str(xml).expect("generated documents are well-formed")
            })
            .collect();
        let pool = match workload {
            Workload::Protein => vec![PROTEIN_QUERY.to_owned()],
            Workload::Distinct => distinct_overlapping_queries(shape.subs),
            Workload::Churn => churn_pool(seed, &doms, shape.pool),
        };
        let trees = pool.iter().map(|q| QueryTree::parse(q).expect("pool queries parse")).collect();
        let zipf_cdf = zipf_cdf(pool.len(), ZIPF_S);
        let mut inputs = Inputs {
            workload,
            shape,
            docs,
            doms,
            pool,
            trees,
            initial: Vec::new(),
            zipf_cdf,
            expected: Vec::new(),
        };
        inputs.expected = vec![None; inputs.pool.len() * inputs.docs.len()];
        inputs.initial = match workload {
            Workload::Churn => {
                let mut rng = Rng::new(derive(seed, Stream::Subs, 0));
                (0..shape.subs).map(|_| inputs.zipf(&mut rng)).collect()
            }
            _ => (0..inputs.pool.len()).collect(),
        };
        inputs
    }

    /// Draws a pool index with Zipf popularity (index 0 hottest).
    pub fn zipf(&self, rng: &mut Rng) -> usize {
        let total = *self.zipf_cdf.last().expect("pool is not empty");
        let u = rng.unit() * total;
        self.zipf_cdf.partition_point(|&c| c <= u).min(self.zipf_cdf.len() - 1)
    }

    /// The oracle's solutions of pool query `query` over document `doc`,
    /// sorted by node id. Computed on first use, apart from any engine.
    pub fn expected(&mut self, query: usize, doc: usize) -> &[Solution] {
        let slot = query * self.docs.len() + doc;
        self.expected[slot].get_or_insert_with(|| {
            oracle::evaluate(&self.doms[doc], &self.trees[query])
                .into_iter()
                .map(|m| (m.node, m.value))
                .collect()
        })
    }

    /// Computes the oracle's solutions of every pool query over every
    /// document, so no timed round waits for the oracle.
    pub fn prime_oracle(&mut self) {
        for q in 0..self.pool.len() {
            for d in 0..self.docs.len() {
                self.expected(q, d);
            }
        }
    }

    /// Total bytes of one round's documents.
    pub fn round_bytes(&self) -> u64 {
        let pool: u64 = self.docs.iter().map(|d| d.len() as u64).sum();
        pool * self.shape.round_docs as u64 / self.docs.len() as u64
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect()
}

/// The churn pool: distinct region-pinned queries
/// `/site/regions/{region}/item[@id = 'itemJ']/{field}` over items present
/// in every document. Even pool indices pin item J's true region (the
/// query then matches once per document), odd ones another region (it
/// never matches), so exactly half the pool matches and popularity rank
/// does not decide, from seed to seed, whether the hottest queries match.
fn churn_pool(seed: u64, doms: &[Document], size: usize) -> Vec<String> {
    // Item id -> region index, kept only where every document agrees.
    let mut common: Option<Vec<(String, usize)>> = None;
    for dom in doms {
        let mut items = Vec::new();
        for (r, region) in REGIONS.iter().enumerate() {
            let tree = QueryTree::parse(&format!("/site/regions/{region}/item/@id"))
                .expect("region query parses");
            for m in oracle::evaluate(dom, &tree) {
                items.push((m.value.expect("attribute matches carry a value"), r));
            }
        }
        common = Some(match common {
            None => items,
            Some(prev) => {
                let here: HashSet<&(String, usize)> = items.iter().collect();
                prev.into_iter().filter(|it| here.contains(it)).collect()
            }
        });
    }
    let mut items = common.unwrap_or_default();
    items.sort();
    assert!(
        size.div_ceil(2) * 3 <= items.len() * FIELDS.len() * 2,
        "a churn pool of {size} needs more items than the documents share ({})",
        items.len()
    );
    let mut rng = Rng::new(derive(seed, Stream::Pool, 0));
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let (item, true_region) = &items[rng.below(items.len())];
        let field = FIELDS[rng.below(FIELDS.len())];
        let region = if pool.len() % 2 == 0 {
            *true_region
        } else {
            (true_region + 1 + rng.below(REGIONS.len() - 1)) % REGIONS.len()
        };
        let query = format!("/site/regions/{}/item[@id = '{item}']/{field}", REGIONS[region]);
        if seen.insert(query.clone()) {
            pool.push(query);
        }
    }
    pool
}
