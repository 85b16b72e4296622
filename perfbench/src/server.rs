//! The server process: `qasomd`'s serving stack (`qasom_daemon::spawn`
//! over the workload's market, shipped `BrokerConfig::default()`) plus
//! a provider-side churn thread, driven over stdin.
//!
//! Protocol (one line each way):
//!
//! ```text
//! → (start)        ← ready <addr>
//! → churn-start    ← ok
//! → churn-stop     ← ok
//! → stats FROM TO  ← stats key=value key=value …
//! → save-state     ← ok
//! → stop | EOF       (daemon stopped, process exits)
//! ```

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qasom::SharedEnvironment;
use qasom_daemon::BrokerConfig;
use qasom_registry::persist::{encode_state, FileBackend, Persistence};

use crate::market::{self, Churner, Workload};
use crate::stats::percentile;

/// Runs the server process until `stop` or stdin EOF.
pub fn serve(workload: Workload, seed: u64, dir: &Path, warm: bool) -> Result<(), String> {
    let spec = workload.spec();
    let shared = if warm {
        market::warm_market(workload, seed, dir)?
    } else {
        market::cold_market(workload, seed, spec.journaled.then_some(dir))?
    };
    let handle = qasom_daemon::spawn("127.0.0.1:0", shared.clone(), BrokerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    reply(&format!("ready {}", handle.addr()))?;

    let mut churn: Option<Churn> = None;
    let mut acks: Vec<(f64, f64)> = Vec::new();
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        match line.trim() {
            "churn-start" => {
                if churn.is_none() {
                    churn = Some(Churn::start(shared.clone(), workload, seed)?);
                }
                reply("ok")?;
            }
            "churn-stop" => {
                if let Some(running) = churn.take() {
                    acks.extend(running.stop()?);
                }
                reply("ok")?;
            }
            cmd if cmd.starts_with("stats") => {
                let window: Vec<f64> = cmd
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect();
                let (from, to) = match window[..] {
                    [from, to] => (from, to),
                    _ => (0.0, f64::INFINITY),
                };
                reply(&stats_line(&shared, &acks, from, to))?;
            }
            "save-state" => {
                if !warm {
                    save_state(&shared, workload, seed, dir)?;
                }
                reply("ok")?;
            }
            "stop" => break,
            other => return Err(format!("unknown command {other:?}")),
        }
    }
    if let Some(running) = churn.take() {
        running.stop()?;
    }
    handle.stop();
    Ok(())
}

fn reply(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// WAL records a journaled market's data directory is left with.
const WAL_TAIL_EVENTS: usize = 512;

/// Leaves in `dir` the state warm boots start from, the same on every
/// run: a journaled market checkpoints and then journals exactly
/// [`WAL_TAIL_EVENTS`] churn events, so a warm boot loads the snapshot
/// and replays that tail (where the serving run's last automatic
/// checkpoint fell would otherwise set the replay length); any other
/// market writes the snapshot a shutdown checkpoint would leave.
fn save_state(
    shared: &SharedEnvironment,
    workload: Workload,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    if workload.spec().journaled {
        if !shared.checkpoint_registry() {
            return Err("the journal detached while serving".into());
        }
        let mut churner = Churner::new(workload, seed, 6, 3_000_000)?;
        for _ in 0..WAL_TAIL_EVENTS / 2 {
            churner.apply(shared);
        }
        return Ok(());
    }
    let blob = shared.with(|e| encode_state(e.registry()));
    FileBackend::open(dir)
        .and_then(|mut backend| backend.write_snapshot(&blob))
        .map_err(|e| format!("snapshot: {e}"))
}

/// `stats` reply: every recorder counter, the churn acknowledgement
/// latencies of the deltas applied `from..to` seconds after
/// `churn-start`, the live registry size and the peak resident set.
fn stats_line(shared: &SharedEnvironment, acks: &[(f64, f64)], from: f64, to: f64) -> String {
    let acks: Vec<f64> = acks
        .iter()
        .filter(|(at, _)| (from..to).contains(at))
        .map(|&(_, ms)| ms)
        .collect();
    let (counters, services) = shared.with(|e| {
        let counters = e
            .recorder()
            .and_then(|r| r.snapshot())
            .map(|s| s.counters)
            .unwrap_or_default();
        (counters, e.registry().len())
    });
    let mut line = String::from("stats");
    for (name, value) in counters {
        line.push_str(&format!(" {name}={value}"));
    }
    line.push_str(&format!(" bench.services={services}"));
    line.push_str(&format!(" bench.churn_acks={}", acks.len()));
    if !acks.is_empty() {
        line.push_str(&format!(
            " bench.churn_p50_ms={} bench.churn_p90_ms={} bench.churn_p99_ms={}",
            percentile(&acks, 0.50),
            percentile(&acks, 0.90),
            percentile(&acks, 0.99)
        ));
    }
    line.push_str(&format!(" bench.vm_hwm_kib={}", vm_hwm_kib()));
    line
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Churn deltas (one arrival + one departure, two WAL appends) per
/// second. A chosen write load, not one measured from a provider
/// population: with the journal's automatic checkpoint every 1,024
/// events it gives one full-snapshot checkpoint about every 5 s.
const CHURN_RATE: f64 = 100.0;

/// The provider-side churn thread, applying the workload's churn
/// ([`Churner`]) beside the sessions at [`CHURN_RATE`]. A delta that
/// waited for the lock past the next one's due time sets off no
/// catch-up burst: the schedule restarts from its acknowledgement.
struct Churn {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, f64)>>,
}

impl Churn {
    fn start(shared: SharedEnvironment, workload: Workload, seed: u64) -> Result<Churn, String> {
        let mut churner = Churner::new(workload, seed, 2, 0)?;
        let period = Duration::from_secs_f64(1.0 / CHURN_RATE);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut acks = Vec::new();
            let start = Instant::now();
            let mut due = start;
            while !flag.load(Ordering::Relaxed) {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                    continue;
                }
                let took = churner.apply(&shared);
                acks.push(((now - start).as_secs_f64(), took.as_secs_f64() * 1e3));
                due = (due + period).max(Instant::now());
            }
            acks
        });
        Ok(Churn { stop, thread })
    }

    fn stop(self) -> Result<Vec<(f64, f64)>, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| "the churn thread panicked".to_owned())
    }
}

/// Parses `serve` arguments: `--workload W --seed N --dir D [--warm]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut dir = None;
    let mut warm = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()?),
            "--seed" => seed = value()?.parse().ok(),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--warm" => warm = true,
            other => return Err(format!("unknown serve flag {other}")),
        }
    }
    match (workload, seed, dir) {
        (Some(w), Some(s), Some(d)) => serve(w, s, &d, warm),
        _ => Err("serve needs --workload, --seed and --dir".into()),
    }
}
