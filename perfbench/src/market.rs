//! Workloads: the provider market each one serves and the seeded
//! request stream its clients send.
//!
//! Everything here is a pure function of `(workload, seed)` (plus the
//! request index), so the server process, the load generator and the
//! traced replay all see the same market and the same requests.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qasom::{Environment, RegistryDelta, SharedEnvironment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{MemoryRecorder, Recorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::{PropertyId, QosModel, Unit};
use qasom_registry::persist::{FileBackend, PersistConfig, RegistryJournal};
use qasom_registry::{ServiceDescription, ServiceId, ServiceRegistry};
use qasom_task::{Activity, TaskNode, UserTask};

/// The traffic mixes the benchmark knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k services over 8 concepts; every request differs, so nothing
    /// batches and discovery plus the local phase dominate.
    Mixed100k,
    /// 100k services over 64 concepts, journaled to disk, with
    /// best-in-class newcomers arriving and departing beside the reads.
    ChurnDurable,
}

/// The fixed parameters of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Services in the market.
    pub services: usize,
    /// Capability concepts the services are spread over.
    pub concepts: usize,
    /// Activities per request, inclusive range.
    pub activities: (usize, usize),
    /// Whether the registry is journaled to a `FileBackend`.
    pub journaled: bool,
    /// Open-loop arrival rate, sessions per second: near half of the
    /// closed-loop capacity measured on a shared 2-core x86-64 VM
    /// (`perfbench/BASELINE.md`: 14–15 sessions/s on mixed-100k, 108–114
    /// on churn-durable).
    pub open_rate: f64,
    /// Whether a provider-side churn thread runs beside the sessions.
    pub churn: bool,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mixed-100k" => Some(Workload::Mixed100k),
            "churn-durable" => Some(Workload::ChurnDurable),
            _ => None,
        }
    }

    /// The workload's name as given on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed100k => "mixed-100k",
            Workload::ChurnDurable => "churn-durable",
        }
    }

    /// The workload's fixed parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Mixed100k => Spec {
                services: 100_000,
                concepts: 8,
                activities: (4, 8),
                journaled: false,
                open_rate: 6.0,
                churn: false,
            },
            Workload::ChurnDurable => Spec {
                services: 100_000,
                concepts: 64,
                activities: (6, 6),
                journaled: true,
                open_rate: 57.0,
                churn: true,
            },
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator; the benchmark's only
/// source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator over `(seed, stream)`: independent streams per
    /// purpose and per request index.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
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
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const NS: &str = "pb";

/// The IRI of capability concept `c`.
pub fn concept_iri(c: usize) -> String {
    format!("{NS}#C{c}")
}

/// A fresh, empty environment over the workload's ontology, with a
/// memory recorder attached (as `qasomd` does).
pub fn environment(workload: Workload, seed: u64) -> Result<Environment, String> {
    let mut builder = OntologyBuilder::new(NS);
    for c in 0..workload.spec().concepts {
        builder.concept(&format!("C{c}"));
    }
    let ontology = builder.build().map_err(|e| format!("ontology: {e}"))?;
    let mut env = Environment::new(QosModel::standard(), ontology, seed);
    env.set_recorder(Arc::new(MemoryRecorder::new()) as Arc<dyn Recorder>);
    Ok(env)
}

/// The QoS properties market services advertise.
#[derive(Debug, Clone, Copy)]
pub struct Props {
    rt: PropertyId,
    av: PropertyId,
    rel: PropertyId,
}

impl Props {
    /// Looks the properties up in the standard QoS model (property ids
    /// are a pure function of the model, so any instance will do).
    pub fn standard() -> Result<Props, String> {
        let model = QosModel::standard();
        let prop = |name: &str| {
            model
                .property(name)
                .ok_or(format!("the standard QoS model lacks {name}"))
        };
        Ok(Props {
            rt: prop("ResponseTime")?,
            av: prop("Availability")?,
            rel: prop("Reliability")?,
        })
    }
}

/// The advertisement of market service `i`: concept `i % concepts`,
/// QoS read off the per-concept lattices at position `i / concepts`.
fn market_service(props: Props, lattices: &[[Vec<f64>; 3]], i: usize) -> ServiceDescription {
    let [rt, av, rel] = &lattices[i % lattices.len()];
    let j = i / lattices.len();
    ServiceDescription::new(format!("s{i}"), concept_iri(i % lattices.len()).as_str())
        .with_qos(props.rt, 40.0 + rt[j] * 960.0)
        .with_qos(props.av, 0.90 + av[j] * 0.099)
        .with_qos(props.rel, 0.90 + rel[j] * 0.099)
}

/// Per concept and property, the evenly spaced points `(k + ½) / n` of
/// `[0, 1)` in a seeded random order. Every seed gives each concept the
/// same multiset of QoS values — so the same clustering work — and only
/// which service gets which value changes.
fn lattices(spec: &Spec, rng: &mut Rng) -> Vec<[Vec<f64>; 3]> {
    let mut lattice = |n: usize| {
        let mut points: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) / n as f64).collect();
        for k in (1..n).rev() {
            points.swap(k, rng.below(k + 1));
        }
        points
    };
    (0..spec.concepts)
        .map(|c| {
            let n = (spec.services + spec.concepts - 1 - c) / spec.concepts;
            [lattice(n), lattice(n), lattice(n)]
        })
        .collect()
}

/// Churn newcomer `k` for concept `concept`: better than every market
/// service on every property, so compositions pick it.
pub fn newcomer(props: Props, k: u64, concept: usize) -> ServiceDescription {
    ServiceDescription::new(format!("n{k}"), concept_iri(concept).as_str())
        .with_qos(props.rt, 30.0 - (k % 7) as f64)
        .with_qos(props.av, 0.999)
        .with_qos(props.rel, 0.999)
}

/// Newcomers live for this many churn deltas before they depart. A
/// chosen figure, not one measured from a provider population: short
/// enough that sessions keep losing the services they chose.
const NEWCOMER_LIFETIME: usize = 8;

/// The churn of a provider population: each delta brings one
/// best-in-class newcomer and removes, by id, the newcomer that arrived
/// [`NEWCOMER_LIFETIME`] deltas earlier, so services that compositions
/// chose keep leaving (`hotpath-stress`'s "the chosen service leaves").
pub struct Churner {
    props: Props,
    concepts: usize,
    rng: Rng,
    live: VecDeque<ServiceId>,
    next: u64,
}

impl Churner {
    /// A churn source drawing concepts from `(seed, stream)` and naming
    /// newcomers from `first` on (streams must not share names).
    pub fn new(workload: Workload, seed: u64, stream: u64, first: u64) -> Result<Churner, String> {
        Ok(Churner {
            props: Props::standard()?,
            concepts: workload.spec().concepts,
            rng: Rng::new(seed, stream),
            live: VecDeque::new(),
            next: first,
        })
    }

    /// Applies the next delta; returns how long `apply_churn` took to
    /// acknowledge it.
    pub fn apply(&mut self, shared: &SharedEnvironment) -> Duration {
        let concept = self.rng.below(self.concepts);
        let desc = newcomer(self.props, self.next, concept);
        let mut delta = RegistryDelta::new().deploy_faithful(desc);
        if self.live.len() >= NEWCOMER_LIFETIME {
            if let Some(id) = self.live.pop_front() {
                delta = delta.undeploy(id);
            }
        }
        let t = Instant::now();
        let receipt = shared.apply_churn(delta);
        let took = t.elapsed();
        self.live.extend(receipt.deployed);
        self.next += 1;
        took
    }
}

/// Builds the workload's market from scratch. With `data_dir` the
/// registry is journaled there first (`PersistConfig::default()`, as
/// `qasomd --data-dir` does on a cold boot), so every registration is
/// a WAL append.
pub fn cold_market(
    workload: Workload,
    seed: u64,
    data_dir: Option<&Path>,
) -> Result<SharedEnvironment, String> {
    let spec = workload.spec();
    let mut env = environment(workload, seed)?;
    if let Some(dir) = data_dir {
        let backend = FileBackend::open(dir).map_err(|e| format!("data dir: {e}"))?;
        let (_, journal, report) = RegistryJournal::open(backend, PersistConfig::default(), None)
            .map_err(|e| format!("journal: {e}"))?;
        if report.recovered_anything() {
            return Err(format!("{} is not empty", dir.display()));
        }
        env.attach_journal(journal);
    }
    let lattices = lattices(&spec, &mut Rng::new(seed, 1));
    let props = Props::standard()?;
    for i in 0..spec.services {
        let desc = market_service(props, &lattices, i);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal));
    }
    if data_dir.is_some() && !env.journaling() {
        return Err("the journal detached while registering the market".into());
    }
    Ok(SharedEnvironment::new(env))
}

/// Installs a recovered registry the way `qasomd` warm boots: adopt
/// the rows, then re-create each live service's runtime behaviour from
/// its advertised QoS.
pub fn adopt(env: &mut Environment, registry: ServiceRegistry) {
    env.adopt_registry(registry);
    let live: Vec<_> = env
        .registry()
        .iter()
        .map(|(id, desc)| (id, desc.qos().clone()))
        .collect();
    for (id, nominal) in live {
        env.attach_behaviour(id, SyntheticService::new(nominal));
    }
}

/// Warm boot from a data directory: recover, adopt, re-attach the
/// journal.
pub fn warm_market(workload: Workload, seed: u64, dir: &Path) -> Result<SharedEnvironment, String> {
    let mut env = environment(workload, seed)?;
    let backend = FileBackend::open(dir).map_err(|e| format!("data dir: {e}"))?;
    let (registry, journal, report) =
        RegistryJournal::open(backend, PersistConfig::default(), None)
            .map_err(|e| format!("recovery: {e}"))?;
    if !report.recovered_anything() {
        return Err(format!("{} holds no registry", dir.display()));
    }
    adopt(&mut env, registry);
    env.attach_journal(journal);
    Ok(SharedEnvironment::new(env))
}

/// The four preference profiles requests draw from.
const PROFILES: [&[(&str, f64)]; 4] = [
    &[("ResponseTime", 0.7), ("Availability", 0.3)],
    &[
        ("ResponseTime", 0.3),
        ("Availability", 0.4),
        ("Reliability", 0.3),
    ],
    &[("Availability", 0.5), ("Reliability", 0.5)],
    &[("ResponseTime", 0.5), ("Reliability", 0.5)],
];

/// One generated request and what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The request.
    pub request: UserRequest,
    /// The capability concept of each activity, in order.
    pub concepts: Vec<usize>,
    /// The preference profile drawn.
    pub profile: usize,
}

/// Request number `index` of the workload's stream for `seed`.
pub fn request(workload: Workload, seed: u64, index: u64) -> Result<Generated, String> {
    let spec = workload.spec();
    let mut rng = Rng::new(seed, 1_000 + index);
    // Activity counts and preference profiles cycle through every
    // combination (a stratified draw), so each run carries the same mix
    // of request sizes and profiles whatever the seed; the capabilities
    // and the bound are drawn.
    let (lo, hi) = spec.activities;
    let sizes = (hi - lo + 1) as u64;
    let n = lo + (index % sizes) as usize;
    let profile = ((index / sizes) % PROFILES.len() as u64) as usize;
    // A partial Fisher-Yates draw of n distinct concepts.
    let mut pool: Vec<usize> = (0..spec.concepts).collect();
    for i in 0..n {
        let j = i + rng.below(pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(n);
    // A per-request bound (seconds) keeps every wire signature distinct
    // while staying feasible: the best services answer in ~40 ms.
    let bound = 2.0 + n as f64 * 0.5 + rng.unit() * 3.0;
    Ok(Generated {
        request: build_request(&pool, profile, bound)?,
        concepts: pool,
        profile,
    })
}

fn build_request(concepts: &[usize], profile: usize, bound_s: f64) -> Result<UserRequest, String> {
    let task = UserTask::new(
        "pb",
        TaskNode::sequence(concepts.iter().enumerate().map(|(i, &c)| {
            TaskNode::activity(Activity::new(format!("a{i}"), concept_iri(c).as_str()))
        })),
    )
    .map_err(|e| format!("task: {e}"))?;
    let mut request = UserRequest::new(task)
        .constraint("ResponseTime", bound_s, Unit::Seconds)
        .map_err(|e| format!("constraint: {e}"))?;
    for (name, weight) in PROFILES[profile] {
        request = request.weight(*name, *weight);
    }
    Ok(request)
}
