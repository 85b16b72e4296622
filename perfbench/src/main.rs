//! `qasom-perfbench`: the serving benchmark for `qasomd`.
//!
//! ```text
//! qasom-perfbench --workload W --seed N --seconds S --trace 0|1
//! qasom-perfbench serve --workload W --seed N --dir D [--warm]
//! ```
//!
//! The first form is the load generator. It starts server processes
//! (the second form: `qasom_daemon::spawn` over the workload's market
//! with `BrokerConfig::default()`), drives them over real TCP from two
//! connections on two threads, and prints a report whose last line is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--trace 0` gives the end-to-end metrics. Serving figures are taken
//! over their whole measurement window, so a periodic stall of the
//! program (a registry checkpoint under the write lock) counts in full;
//! start-ups are repeated and reduced to their lower decile
//! (`stats::fast_start`):
//!
//! * `setup_s` — server start to first session served, over
//!   [`START_REPS`] cold starts (on a journaled workload this includes
//!   journaling the whole market);
//! * `sessions_per_s` — completions across the closed-loop window (from
//!   its first completion to its last), 2 connections × pipeline depth
//!   8 (the default client quota, so admission sheds nothing);
//! * `session_p50_ms` — median over the open loop at the workload's
//!   fixed rate, each session timed from when it was due (p90 printed,
//!   and p99 where the phase yields at least 1000 sessions);
//! * `session_ok_ratio` — sessions that ended `Completed` over sessions
//!   sent (both phases);
//! * `warm_boot_s` — a server started on the run's data directory,
//!   until it served its first session, over [`START_REPS`] boots;
//! * `server_rss_mib` — the serving process's peak resident set.
//!
//! On churn-durable, provider-side churn acknowledgements
//! (`SharedEnvironment::apply_churn` beside the sessions) are printed,
//! not gated: every gated metric is reported on every workload, and only
//! churn-durable churns. The write path is gated through churn-durable's
//! `setup_s` (journaling the whole market) and `sessions_per_s`
//! (sessions served beside the churn and its checkpoints).
//!
//! `--trace 1` serves a shorter TCP run for the server's counters, then
//! replays the same seeded requests in-process and times each layer.
//!
//! The run fails (non-zero exit, `"correct": false`) when a reply
//! matches no outstanding correlation id, a completed session reports
//! failure or too few invocations, the client and server disagree on
//! completions, the traced pipeline disagrees with
//! `Environment::compose`, or the generator fell behind its schedule.

mod client;
mod market;
mod poll;
mod server;
mod stats;
mod trace;

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use qasom_obs::JsonValue;

use client::{Conn, Tally, Traffic};
use market::Workload;
use stats::{fast_start, mean, median, percentile};

/// Load-generator connections (and threads): the core count of the
/// reference 2-core host.
const LANES: u64 = 2;
/// Closed-loop pipeline depth per connection: the default client quota.
const DEPTH: usize = 8;
/// Request-index bases, so phases never share a correlation id.
const CLOSED_BASE: u64 = 1 << 32;
const OPEN_BASE: u64 = 2 << 32;
const REPLAY_BASE: u64 = 3 << 32;
/// The generator fell behind when its median send ran more than
/// [`LATE_MEDIAN_MS`] late, or more than [`LATE_SHARE`] of its sends
/// ran more than [`LATE_MS`] late, each send's lateness taken less the
/// CPU time the host stole from the VM while it waited (a stall of the
/// whole VM holds up the server as much as the generator). Single late
/// sends (the thread waking while the server's threads hold both cores)
/// are charged to the sessions they delayed, since latency runs from
/// the due time.
const LATE_MEDIAN_MS: f64 = 5.0;
const LATE_SHARE: f64 = 0.05;
const LATE_MS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value}"))?,
                );
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("usage: qasom-perfbench --workload W --seed N --seconds S --trace 0|1".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("serve") {
        server::main(&args[1..]).map(|()| true)
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("qasom-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A server process under the generator's control; killed and reaped
/// on drop if it was not stopped cleanly.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    spawned: Instant,
}

impl Server {
    fn spawn(workload: Workload, seed: u64, dir: &Path, warm: bool) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let spawned = Instant::now();
        let mut command = Command::new(exe);
        command
            .args([
                "serve",
                "--workload",
                workload.name(),
                "--seed",
                &seed.to_string(),
            ])
            .arg("--dir")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if warm {
            command.arg("--warm");
        }
        let mut child = command.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        let mut server = Server {
            child,
            stdin,
            stdout: stdout.ok_or("server stdout")?,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
        };
        let line = server.read_line()?;
        server.addr = line
            .strip_prefix("ready ")
            .and_then(|a| a.parse().ok())
            .ok_or(format!("unexpected server greeting {line:?}"))?;
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("the server exited".into()),
            Ok(_) => Ok(line.trim().to_owned()),
            Err(e) => Err(format!("server stdout: {e}")),
        }
    }

    fn command(&mut self, command: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().ok_or("server stdin closed")?;
        writeln!(stdin, "{command}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("server stdin: {e}"))?;
        self.read_line()
    }

    /// Server counters and churn figures from a `stats` reply; churn
    /// acknowledgements count from `from_s` to `to_s` after
    /// `churn-start`.
    fn stats(&mut self, from_s: f64, to_s: f64) -> Result<Vec<(String, f64)>, String> {
        let line = self.command(&format!("stats {from_s} {to_s}"))?;
        let body = line
            .strip_prefix("stats")
            .ok_or(format!("bad stats reply {line:?}"))?;
        Ok(body
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
            .collect())
    }

    fn stop(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = writeln!(stdin, "stop");
        }
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn stat(stats: &[(String, f64)], key: &str) -> f64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// The run's scratch directory inside the checkout; removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("work dir: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// How many times to repeat a start-up measurement: at least `min`,
/// and more (up to `max`) while the repetitions so far took less than
/// `budget` — cheap start-ups get enough repetitions for a steady
/// median, expensive ones do not blow the run time.
#[derive(Clone, Copy)]
struct Reps {
    min: usize,
    max: usize,
    budget: Duration,
}

impl Reps {
    fn more(self, done: usize, started: Instant) -> bool {
        done < self.min || (done < self.max && started.elapsed() < self.budget)
    }
}

/// Cold starts (`setup_s`) and warm boots (`warm_boot_s`) per run.
const START_REPS: Reps = Reps {
    min: 3,
    max: 25,
    budget: Duration::from_secs(4),
};

/// Everything one TCP serving run measured.
struct Served {
    setup_s: Vec<f64>,
    closed: Tally,
    open: Tally,
    /// CPU time the host stole from the VM during the open loop (ms).
    open_steal_ms: f64,
    stats: Vec<(String, f64)>,
    dir: PathBuf,
}

/// Cold-starts the server (`setup` times, keeping the last), then runs
/// the closed-loop and open-loop phases (with churn beside them on a
/// churning workload), and stops the server after saving its data
/// directory.
fn serve_run(args: &Args, work: &Path, setup: Reps, span: f64) -> Result<Served, String> {
    let (w, seed) = (args.workload, args.seed);
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let (mut server, dir) = loop {
        let dir = work.join(format!("serve-{}", setup_s.len()));
        let s = Server::spawn(w, seed, &dir, false)?;
        let served = client::one_session(s.addr, w, seed, 0)?;
        setup_s.push((served - s.spawned).as_secs_f64());
        if !setup.more(setup_s.len(), started) {
            break (s, dir);
        }
        s.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
    };
    let churn = w.spec().churn;
    let churn_start = Instant::now();
    if churn {
        expect_ok(server.command("churn-start")?)?;
    }

    let mut conns = (0..LANES)
        .map(|lane| Conn::open(server.addr, &format!("perfbench-{lane}")))
        .collect::<Result<Vec<_>, _>>()?;
    let lane = |lane: u64, base: u64| Traffic {
        workload: w,
        seed,
        lane,
        lanes: LANES,
        base,
    };

    // Closed loop: a warm-up (caches fill, lazy set-up finishes) and
    // then the measured window.
    let t0 = Instant::now();
    let measure_from = t0 + Duration::from_secs_f64(span * 0.10);
    let until = measure_from + Duration::from_secs_f64(span * 0.45);
    let closed = on_lanes(&mut conns, |conn, l| {
        client::closed_loop(conn, lane(l, CLOSED_BASE), DEPTH, measure_from, until)
    })?;

    // Open loop at the workload's fixed rate.
    let start = Instant::now() + Duration::from_millis(20);
    let until_open = start + Duration::from_secs_f64(span * 0.45);
    let rate = w.spec().open_rate;
    let steal_before = client::host_steal_ms();
    let open = on_lanes(&mut conns, |conn, l| {
        client::open_loop(conn, lane(l, OPEN_BASE), rate, start, until_open)
    })?;
    let open_steal_ms = client::host_steal_ms() - steal_before;
    for conn in conns {
        conn.bye()?;
    }

    if churn {
        expect_ok(server.command("churn-stop")?)?;
    }
    // Churn acknowledgements are reported over the closed-loop window,
    // where the serving thread is saturated and every delta waits for
    // it.
    let stats = server.stats(
        (measure_from - churn_start).as_secs_f64(),
        (until - churn_start).as_secs_f64(),
    )?;
    expect_ok(server.command("save-state")?)?;
    server.stop()?;
    Ok(Served {
        setup_s,
        closed,
        open,
        open_steal_ms,
        stats,
        dir,
    })
}

fn expect_ok(reply: String) -> Result<(), String> {
    if reply == "ok" {
        Ok(())
    } else {
        Err(format!("server replied {reply:?}"))
    }
}

/// Runs `phase` on every connection, one thread per connection (the
/// calling thread takes the first), and merges the tallies.
fn on_lanes<F>(conns: &mut [Conn], phase: F) -> Result<Tally, String>
where
    F: Fn(&mut Conn, u64) -> Result<Tally, String> + Sync,
{
    let phase = &phase;
    let Some((head, rest)) = conns.split_first_mut() else {
        return Err("no connection to run a phase on".into());
    };
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| scope.spawn(move || phase(conn, i as u64 + 1)))
            .collect();
        let mut results = vec![phase(head, 0)];
        for handle in handles {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|_| Err("a lane panicked".into())),
            );
        }
        results
    });
    let mut tally = Tally::default();
    for result in results {
        tally.merge(result?);
    }
    Ok(tally)
}

/// The correctness gate over a serving run; returns the violations.
fn gate(served: &Served) -> Vec<String> {
    let mut violations = served.closed.violations.clone();
    violations.extend(served.open.violations.iter().cloned());
    // The set-up probe of the serving server completed too.
    let client_completed = served.closed.completed + served.open.completed + 1;
    let unanswered = served.closed.unanswered + served.open.unanswered;
    let server_completed = stat(&served.stats, "daemon.sessions_completed") as u64;
    if server_completed < client_completed || server_completed > client_completed + unanswered {
        violations.push(format!(
            "clients saw {client_completed} completions ({unanswered} unanswered), \
             the server counted {server_completed}"
        ));
    }
    if served.closed.in_window < 2 {
        violations.push("the closed loop completed fewer than 2 sessions in its window".into());
    }
    let late = &served.open.own_lateness_ms;
    let behind = late.iter().filter(|&&l| l > LATE_MS).count() as f64;
    if !late.is_empty()
        && (median(late) > LATE_MEDIAN_MS || behind / late.len() as f64 > LATE_SHARE)
    {
        violations.push(format!(
            "invalid run: the generator fell behind (median send {:.3} ms late, \
             {behind} of {} sends over {LATE_MS} ms late, less host steal)",
            median(late),
            late.len()
        ));
    }
    violations
}

/// One reported metric: name, value, unit and sample count.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let work = WorkDir::new(args)?;
    let (metrics, attempted, failed, violations) = if args.trace {
        traced(args, &work.0)?
    } else {
        untraced(args, &work.0)?
    };
    let correct = violations.is_empty();
    println!(
        "# workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!(
            "{:<40} {:>14.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    // On stderr too, where a log that keeps only the error stream
    // still shows why the run failed.
    for v in violations.iter().take(8) {
        println!("GATE FAILED: {v}");
        eprintln!("qasom-perfbench: gate failed: {v}");
    }
    if violations.len() > 8 {
        println!("GATE FAILED: … and {} more", violations.len() - 8);
        eprintln!("qasom-perfbench: … and {} more", violations.len() - 8);
    }
    let mut body = JsonValue::object();
    for m in &metrics {
        body = body.field(
            m.name,
            JsonValue::object()
                .field("value", m.value)
                .field("unit", m.unit),
        );
    }
    let line = JsonValue::object()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", body);
    println!("{}", line.to_compact());
    Ok(correct)
}

type Outcome = (Vec<Metric>, u64, u64, Vec<String>);

fn print_tally(phase: &str, t: &Tally) {
    let mut errors: Vec<_> = t.errors.iter().collect();
    errors.sort();
    println!(
        "# {phase}: sent {} completed {} busy {} rejected {} errors {:?} unanswered {} substitutions {}",
        t.sent, t.completed, t.busy, t.rejected, errors, t.unanswered, t.substitutions
    );
}

fn untraced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let served = serve_run(args, work, START_REPS, args.seconds)?;
    let violations = gate(&served);

    let mut warm_s = Vec::new();
    let started = Instant::now();
    while START_REPS.more(warm_s.len(), started) {
        let s = Server::spawn(args.workload, args.seed, &served.dir, true)?;
        let served_at = client::one_session(s.addr, args.workload, args.seed, 0)?;
        warm_s.push((served_at - s.spawned).as_secs_f64());
        s.stop()?;
    }

    let (closed, open) = (&served.closed, &served.open);
    let st = &served.stats;
    println!(
        "# server: {} batches of {:.3} sessions, {} substitutions",
        stat(st, "daemon.batches"),
        stat(st, "daemon.batched_sessions") / stat(st, "daemon.batches").max(1.0),
        stat(st, "events.substituted"),
    );
    print_tally("closed loop", closed);
    print_tally("open loop", open);
    let lat = &open.latency_ms;
    // Tails are printed, not gated: on a shared 2-core VM their
    // run-to-run spread is set by host CPU stalls, not by the program.
    println!(
        "# session_p90_ms {:.6} ms n={}",
        percentile(lat, 0.90),
        lat.len()
    );
    if lat.len() >= 1000 {
        println!(
            "# session_p99_ms {:.6} ms n={}",
            percentile(lat, 0.99),
            lat.len()
        );
    } else {
        println!(
            "# session_p99_ms not reported: {} open-loop sessions (< 1000)",
            lat.len()
        );
    }
    if args.workload.spec().churn {
        println!(
            "# churn acknowledgement p50_ms {:.6} p90_ms {:.6} p99_ms {:.6} n={}",
            stat(st, "bench.churn_p50_ms"),
            stat(st, "bench.churn_p90_ms"),
            stat(st, "bench.churn_p99_ms"),
            stat(st, "bench.churn_acks")
        );
    }
    println!(
        "# generator lateness p50 {:.4} ms p99 {:.4} ms max {:.4} ms over {} sends \
         (less host steal: p50 {:.4} ms max {:.4} ms); host stole {:.0} ms of CPU \
         during the open loop",
        percentile(&open.lateness_ms, 0.5),
        percentile(&open.lateness_ms, 0.99),
        percentile(&open.lateness_ms, 1.0),
        open.lateness_ms.len(),
        percentile(&open.own_lateness_ms, 0.5),
        percentile(&open.own_lateness_ms, 1.0),
        served.open_steal_ms
    );
    let sent = closed.sent + open.sent;
    let completed = closed.completed + open.completed;

    let metrics = vec![
        metric(
            "sessions_per_s",
            closed_rate(closed),
            "1/s",
            closed.in_window as usize,
        ),
        metric("session_p50_ms", median(lat), "ms", lat.len()),
        metric(
            "session_ok_ratio",
            completed as f64 / sent as f64,
            "ratio",
            sent as usize,
        ),
        metric("warm_boot_s", fast_start(&warm_s), "s", warm_s.len()),
        metric(
            "setup_s",
            fast_start(&served.setup_s),
            "s",
            served.setup_s.len(),
        ),
        metric(
            "server_rss_mib",
            stat(st, "bench.vm_hwm_kib") / 1024.0,
            "MiB",
            1,
        ),
    ];
    let attempted = sent + (served.setup_s.len() + warm_s.len()) as u64;
    Ok((metrics, attempted, sent - completed, violations))
}

/// Sessions per second across the closed-loop window: completions after
/// the window's first one, over the time from the first to the last.
fn closed_rate(closed: &Tally) -> f64 {
    match closed.window_span {
        Some((first, last)) if last > first => {
            (closed.in_window - 1) as f64 / (last - first).as_secs_f64()
        }
        _ => f64::NAN,
    }
}

fn traced(args: &Args, work: &Path) -> Result<Outcome, String> {
    let (w, seed, s) = (args.workload, args.seed, args.seconds);
    // The TCP half: a shorter served run, for the server's counters.
    let once = Reps {
        min: 1,
        max: 1,
        budget: Duration::ZERO,
    };
    let served = serve_run(args, work, once, s * 0.4)?;
    let mut violations = gate(&served);
    let st = &served.stats;
    let (recovery, shared) = trace::recover(w, seed, &served.dir, 3)?;
    let layers = trace::layers(
        &shared,
        w,
        seed,
        OPEN_BASE,
        Duration::from_secs_f64(s * 0.25),
        5,
        &mut violations,
    )?;
    let broker = trace::broker_path(
        &shared,
        w,
        seed,
        REPLAY_BASE,
        Duration::from_secs_f64(s * 0.15),
        &mut violations,
    )?;
    let cache = shared.with(|e| e.cache_stats());
    let churn_us = trace::churn_apply(&shared, w, seed, 200)?;

    let n = layers.compose_ms.len();
    // Means, so compose = analyze + discover + local + global +
    // unattributed holds exactly.
    let analyze_ms = mean(&layers.analyze_us) / 1e3;
    let parts =
        analyze_ms + mean(&layers.discover_ms) + mean(&layers.local_ms) + mean(&layers.global_ms);
    let compose = mean(&layers.compose_ms);
    // The (capability, preference profile) pairs the open loop sent.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for k in 0..served.open.sent {
        let g = market::request(w, seed, OPEN_BASE + k)?;
        pairs.extend(g.concepts.iter().map(|&c| (c, g.profile)));
    }
    let distinct = pairs
        .iter()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let runs = stat(st, "selection.runs").max(1.0);
    let admitted = stat(st, "daemon.sessions_admitted");
    let shed = stat(st, "daemon.sessions_shed") + stat(st, "daemon.quota_denials");
    let batches = stat(st, "daemon.batches").max(1.0);
    let sent = served.closed.sent + served.open.sent;
    let completed = served.closed.completed + served.open.completed;
    print_tally("closed loop", &served.closed);
    print_tally("open loop", &served.open);
    let rr = &recovery;
    let metrics = vec![
        metric(
            "daemon.decode_us",
            median(&layers.decode_us),
            "us",
            layers.decode_us.len(),
        ),
        metric(
            "daemon.encode_us",
            median(&broker.encode_us),
            "us",
            broker.encode_us.len(),
        ),
        metric(
            "daemon.submit_us",
            median(&broker.submit_us),
            "us",
            broker.submit_us.len(),
        ),
        metric(
            "daemon.sojourn_ms",
            median(&broker.sojourn_ms),
            "ms",
            broker.sojourn_ms.len(),
        ),
        metric(
            "daemon.batch_size",
            stat(st, "daemon.batched_sessions") / batches,
            "count",
            batches as usize,
        ),
        metric(
            "daemon.shed_ratio",
            shed / (admitted + shed).max(1.0),
            "ratio",
            (admitted + shed) as usize,
        ),
        metric("analysis.analyze_us", mean(&layers.analyze_us), "us", n),
        metric("registry.discover_ms", mean(&layers.discover_ms), "ms", n),
        metric("registry.candidates", mean(&layers.candidates), "count", n),
        metric(
            "registry.match_cache_hit_ratio",
            cache.hit_ratio(),
            "ratio",
            (cache.hits + cache.misses) as usize,
        ),
        metric(
            "registry.churn_apply_us",
            median(&churn_us),
            "us",
            churn_us.len(),
        ),
        metric(
            "registry.wal_appends",
            stat(st, "persistence.wal.appends"),
            "count",
            1,
        ),
        metric(
            "registry.checkpoints",
            stat(st, "persistence.checkpoints"),
            "count",
            1,
        ),
        metric(
            "registry.checkpoint_ms",
            median(&rr.checkpoint_ms),
            "ms",
            rr.checkpoint_ms.len(),
        ),
        metric(
            "registry.recover.read_ms",
            median(&rr.read_ms),
            "ms",
            rr.read_ms.len(),
        ),
        metric(
            "registry.recover.decode_ms",
            median(&rr.decode_ms),
            "ms",
            rr.decode_ms.len(),
        ),
        metric(
            "registry.recover.rebuild_ms",
            median(&rr.rebuild_ms),
            "ms",
            rr.rebuild_ms.len(),
        ),
        metric(
            "registry.recover.adopt_ms",
            median(&rr.adopt_ms),
            "ms",
            rr.adopt_ms.len(),
        ),
        metric("selection.local_ms", mean(&layers.local_ms), "ms", n),
        metric("selection.global_ms", mean(&layers.global_ms), "ms", n),
        metric(
            "selection.global.levels_explored",
            stat(st, "selection.global.levels_explored") / runs,
            "1/run",
            runs as usize,
        ),
        metric(
            "selection.global.utility_evaluations",
            stat(st, "selection.global.utility_evaluations") / runs,
            "1/run",
            runs as usize,
        ),
        metric("core.compose_ms", compose, "ms", n),
        metric("core.compose_unattributed_ms", compose - parts, "ms", n),
        metric(
            "core.execute_ms",
            median(&layers.execute_ms),
            "ms",
            layers.execute_ms.len(),
        ),
        metric(
            "core.substitutions",
            stat(st, "events.substituted"),
            "count",
            1,
        ),
        // Compose + execute timed inside the traced replay (beside its
        // other spans) against the same calls timed as one untraced span.
        metric(
            "trace.overhead_ratio",
            (mean(&layers.compose_ms) + mean(&layers.execute_ms)) / mean(&layers.untraced_ms),
            "ratio",
            n,
        ),
        metric(
            "mix.repeated_pair_share",
            1.0 - distinct as f64 / pairs.len().max(1) as f64,
            "ratio",
            pairs.len(),
        ),
    ];
    Ok((metrics, sent + 1, sent - completed, violations))
}
