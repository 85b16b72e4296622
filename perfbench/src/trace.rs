//! The traced, in-process half of a `--trace 1` run: it replays the
//! workload's seeded requests against a registry recovered from the
//! served run's data directory and times the call into each module's
//! public function around it. Spans live in memory and are reduced to
//! per-layer figures when the replay ends.

use std::path::Path;
use std::time::{Duration, Instant};

use qasom::{Environment, ServeOutcome, SharedEnvironment};
use qasom_daemon::broker::reply_frame;
use qasom_daemon::{wire, Broker, BrokerConfig, SessionReply, Submission};
use qasom_registry::persist::wal::{self, WalRecord};
use qasom_registry::persist::{FileBackend, PersistConfig, Persistence, RegistryJournal};
use qasom_selection::{Qassa, SelectionProblem};

use crate::market::{self, Churner, Workload};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Warm boot split by stage, one entry per repetition (ms).
#[derive(Debug, Default)]
pub struct Recovery {
    /// `Persistence::snapshot_bytes` + `wal_bytes`.
    pub read_ms: Vec<f64>,
    /// `wal::decode_snapshot`, `wal::split_frames`, `WalRecord::decode`.
    pub decode_ms: Vec<f64>,
    /// `RegistryJournal::open` minus read and decode: slot restore and
    /// WAL replay. Recovery runs unbound, as in `qasomd`, so the
    /// capability index is rebuilt by `adopt_registry`, not here.
    pub rebuild_ms: Vec<f64>,
    /// `adopt_registry` (ontology binding, capability index rebuild) +
    /// `attach_behaviour` for every live service.
    pub adopt_ms: Vec<f64>,
    /// `SharedEnvironment::checkpoint_registry` on the recovered market.
    pub checkpoint_ms: Vec<f64>,
}

/// Times warm boot from `dir` stage by stage, `reps` times, then
/// checkpoints the first recovered market `reps` times. Returns the
/// figures and the last recovered environment, journaled only when the
/// workload serves journaled (so the replay runs what was served).
pub fn recover(
    workload: Workload,
    seed: u64,
    dir: &Path,
    reps: usize,
) -> Result<(Recovery, SharedEnvironment), String> {
    let io = |e: qasom_registry::persist::PersistError| format!("recovery: {e}");
    let mut out = Recovery::default();
    let mut first = None;
    let mut last = None;
    for rep in 0..reps.max(1) {
        // The whole recovery first, then its read and decode stages
        // again on their own; each allocates while the registry of the
        // previous stage is still alive, so neither reuses the other's
        // freed memory.
        let t0 = Instant::now();
        let (registry, journal, _) = RegistryJournal::open(
            FileBackend::open(dir).map_err(io)?,
            PersistConfig::default(),
            None,
        )
        .map_err(io)?;
        let t1 = Instant::now();
        let backend = FileBackend::open(dir).map_err(io)?;
        let snapshot = backend.snapshot_bytes().map_err(io)?;
        let log = backend.wal_bytes().map_err(io)?;
        let t2 = Instant::now();
        let decoded = match &snapshot {
            Some(blob) => Some(wal::decode_snapshot(blob).map_err(io)?),
            None => None,
        };
        let (frames, _) = wal::split_frames(&log);
        let records = frames
            .into_iter()
            .map(WalRecord::decode)
            .collect::<Result<Vec<_>, _>>()
            .map_err(io)?;
        let t3 = Instant::now();
        drop(std::hint::black_box((decoded, records)));
        let t4 = Instant::now();
        let mut env = market::environment(workload, seed)?;
        market::adopt(&mut env, registry);
        let t5 = Instant::now();
        out.read_ms.push(ms(t2 - t1));
        out.decode_ms.push(ms(t3 - t2));
        out.rebuild_ms.push(ms(t1 - t0) - ms(t3 - t1));
        out.adopt_ms.push(ms(t5 - t4));
        if rep == 0 {
            env.attach_journal(journal);
            first = Some(SharedEnvironment::new(env));
        } else {
            if workload.spec().journaled {
                env.attach_journal(journal);
            }
            last = Some(SharedEnvironment::new(env));
        }
    }
    let first = first.ok_or("no recovery ran")?;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        if !first.checkpoint_registry() {
            return Err("the recovered market has no journal to checkpoint".into());
        }
        out.checkpoint_ms.push(ms(t.elapsed()));
    }
    drop(first);
    let last = last.ok_or("recovery needs at least two repetitions")?;
    Ok((out, last))
}

/// Per-request layer timings of the traced replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// `wire::decode_compose` (µs).
    pub decode_us: Vec<f64>,
    /// `Environment::analyze` (µs).
    pub analyze_us: Vec<f64>,
    /// Σ `Environment::discover` over the request's activities (ms).
    pub discover_ms: Vec<f64>,
    /// Candidates discovered per request.
    pub candidates: Vec<f64>,
    /// `Qassa::local_phase` (ms).
    pub local_ms: Vec<f64>,
    /// `Qassa::select_with_levels` (ms).
    pub global_ms: Vec<f64>,
    /// `Environment::compose` (ms).
    pub compose_ms: Vec<f64>,
    /// `SharedEnvironment::execute` (ms).
    pub execute_ms: Vec<f64>,
    /// The same request's compose + execute timed as one span, with no
    /// layer spans around it (ms).
    pub untraced_ms: Vec<f64>,
}

/// Replays requests `base, base+1, …` layer by layer for `budget`
/// (at least `min_requests`), checking that the layered pipeline picks
/// exactly what `Environment::compose` picks; then replays the same
/// requests untraced for the overhead figure.
pub fn layers(
    shared: &SharedEnvironment,
    workload: Workload,
    seed: u64,
    base: u64,
    budget: Duration,
    min_requests: u64,
    violations: &mut Vec<String>,
) -> Result<Layers, String> {
    let mut out = Layers::default();
    let start = Instant::now();
    let mut k = 0;
    while k < min_requests || start.elapsed() < budget {
        let generated = market::request(workload, seed, base + k)?;
        let payload = wire::encode_compose(k, &generated.request).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let (_, request, _) = wire::decode_compose(&payload).map_err(|e| e.to_string())?;
        out.decode_us.push(us(t.elapsed()));
        let composition =
            shared.with(|env| traced_compose(env, &request, k, &mut out, violations))?;
        let t = Instant::now();
        shared
            .execute(composition)
            .map_err(|e| format!("traced execute of request {k}: {e}"))?;
        out.execute_ms.push(ms(t.elapsed()));
        k += 1;
    }
    for i in 0..k {
        let request = market::request(workload, seed, base + i)?.request;
        let t = Instant::now();
        let composition = shared.compose(&request).map_err(|e| e.to_string())?;
        shared.execute(composition).map_err(|e| e.to_string())?;
        out.untraced_ms.push(ms(t.elapsed()));
    }
    Ok(out)
}

fn traced_compose(
    env: &Environment,
    request: &qasom::UserRequest,
    k: u64,
    out: &mut Layers,
    violations: &mut Vec<String>,
) -> Result<qasom::ExecutableComposition, String> {
    let t = Instant::now();
    let diagnostics = env.analyze(request);
    out.analyze_us.push(us(t.elapsed()));
    if !qasom_analysis::partition(diagnostics).0.is_empty() {
        return Err(format!("request {k} was rejected by analysis"));
    }
    let mut discover = Duration::ZERO;
    let mut candidates = Vec::new();
    for activity in request.task().activities() {
        let t = Instant::now();
        candidates.push(env.discover(activity.activity()));
        discover += t.elapsed();
    }
    out.discover_ms.push(ms(discover));
    out.candidates
        .push(candidates.iter().map(Vec::len).sum::<usize>() as f64);
    let problem = SelectionProblem::new(request.task())
        .with_candidates(candidates)
        .with_constraints(
            request
                .constraints(env.model())
                .map_err(|e| e.to_string())?,
        )
        .with_preferences(
            request
                .preferences(env.model())
                .map_err(|e| e.to_string())?,
        )
        .with_approach(request.aggregation_approach());
    let qassa = Qassa::with_config(env.model(), env.config().qassa);
    let t = Instant::now();
    let levels = qassa.local_phase(&problem).map_err(|e| e.to_string())?;
    out.local_ms.push(ms(t.elapsed()));
    let t = Instant::now();
    let layered = qassa
        .select_with_levels(&problem, &levels)
        .map_err(|e| e.to_string())?;
    out.global_ms.push(ms(t.elapsed()));
    let t = Instant::now();
    let composition = env
        .compose(request)
        .map_err(|e| format!("compose of request {k}: {e}"))?;
    out.compose_ms.push(ms(t.elapsed()));
    let direct = composition.outcome();
    let ids = |o: &qasom_selection::SelectionOutcome| {
        o.assignment.iter().map(|c| c.id()).collect::<Vec<_>>()
    };
    if ids(&layered) != ids(direct) || layered.utility != direct.utility {
        violations.push(format!(
            "request {k}: layered pipeline chose {:?} (utility {}), compose chose {:?} (utility {})",
            ids(&layered),
            layered.utility,
            ids(direct),
            direct.utility
        ));
    }
    Ok(composition)
}

/// Broker-path timings of the open-loop replay.
#[derive(Debug, Default)]
pub struct BrokerPath {
    /// `Broker::submit` (µs).
    pub submit_us: Vec<f64>,
    /// Submit until the response leaves `Broker::tick` (ms).
    pub sojourn_ms: Vec<f64>,
    /// `broker::reply_frame` + `Frame::encode` (µs).
    pub encode_us: Vec<f64>,
}

/// Replays requests `base, base+1, …` through a `Broker` on the
/// workload's open-loop schedule for `budget`.
pub fn broker_path(
    shared: &SharedEnvironment,
    workload: Workload,
    seed: u64,
    base: u64,
    budget: Duration,
    violations: &mut Vec<String>,
) -> Result<BrokerPath, String> {
    let rate = workload.spec().open_rate;
    let mut broker = Broker::new(shared.clone(), BrokerConfig::default());
    let mut out = BrokerPath::default();
    let mut submitted = std::collections::HashMap::new();
    let start = Instant::now();
    let mut k: u64 = 0;
    loop {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if now >= due && due < start + budget {
            let generated = market::request(workload, seed, base + k)?;
            let payload = wire::encode_compose(k, &generated.request).map_err(|e| e.to_string())?;
            let (corr, request, signature) =
                wire::decode_compose(&payload).map_err(|e| e.to_string())?;
            let lane = k % 2;
            let t = Instant::now();
            let decision = broker.submit(
                lane,
                corr,
                if lane == 0 { "replay-0" } else { "replay-1" },
                request,
                signature,
            );
            out.submit_us.push(us(t.elapsed()));
            if let Submission::Admitted { .. } = decision {
                submitted.insert(corr, t);
            }
            k += 1;
            continue;
        }
        if broker.queued() > 0 {
            let responses = broker.tick();
            let left = Instant::now();
            for response in responses {
                if let Some(t) = submitted.remove(&response.corr_id) {
                    out.sojourn_ms.push(ms(left - t));
                }
                if !matches!(&response.reply, SessionReply::Outcome(ServeOutcome::Completed(r)) if r.success)
                {
                    violations.push(format!(
                        "broker replay of request {}: {:?}",
                        response.corr_id, response.reply
                    ));
                }
                let t = Instant::now();
                let frame =
                    reply_frame(response.corr_id, &response.reply).map_err(|e| e.to_string())?;
                let mut bytes = Vec::new();
                frame.encode(&mut bytes).map_err(|e| e.to_string())?;
                out.encode_us.push(us(t.elapsed()));
                std::hint::black_box(bytes);
            }
            continue;
        }
        if due >= start + budget {
            break;
        }
        std::thread::sleep(due - now);
    }
    Ok(out)
}

/// Uncontended `SharedEnvironment::apply_churn` latency (µs) of `n`
/// deltas of the workload's churn.
pub fn churn_apply(
    shared: &SharedEnvironment,
    workload: Workload,
    seed: u64,
    n: usize,
) -> Result<Vec<f64>, String> {
    let mut churner = Churner::new(workload, seed, 5, 2_000_000)?;
    Ok((0..n).map(|_| us(churner.apply(shared))).collect())
}
