//! The load generator's side of the wire: one thread per connection,
//! closed-loop and open-loop phases, and per-cause outcome accounting.
//!
//! A connection thread both sends and receives: it waits for the socket
//! to become readable until its next send is due (`ppoll`, which wakes
//! on data at once and on time to the microsecond, unlike socket
//! timeouts, which round up to the kernel tick), so the process needs
//! no reader threads and stays within one thread per connection.

use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qasom_daemon::session::decode_client_event;
use qasom_daemon::{wire, ClientEvent, ClientOutcome, Frame, FrameType};

use crate::market::{self, Workload};
use crate::poll::{quick_ack, readable};

/// How long a phase waits for replies still outstanding at its end.
const DRAIN: Duration = Duration::from_secs(30);

/// An established client connection (after `HELLO`/`HELLO_ACK`).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects and completes the handshake as client `name`.
    pub fn open(addr: SocketAddr, name: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        quick_ack(&stream).map_err(|e| format!("quick ack: {e}"))?;
        let mut conn = Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        };
        let hello = wire::encode_hello(name).map_err(|e| format!("hello: {e}"))?;
        conn.send(&Frame {
            frame_type: FrameType::Hello,
            payload: hello,
        })?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let events = conn.poll_until(Instant::now() + Duration::from_millis(100))?;
            match events.into_iter().next() {
                Some(ClientEvent::HelloAck(_)) => return Ok(conn),
                Some(other) => return Err(format!("expected HELLO_ACK, got {other:?}")),
                None if Instant::now() > deadline => {
                    return Err("no HELLO_ACK within 60 s".into());
                }
                None => {}
            }
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        frame
            .write_to(&mut self.stream)
            .map_err(|e| format!("send: {e}"))
    }

    /// Sends request `index` of the workload's stream, using the index
    /// as the correlation id.
    fn submit(&mut self, workload: Workload, seed: u64, index: u64) -> Result<u32, String> {
        let generated = market::request(workload, seed, index)?;
        let payload =
            wire::encode_compose(index, &generated.request).map_err(|e| format!("encode: {e}"))?;
        self.send(&Frame {
            frame_type: FrameType::Compose,
            payload,
        })?;
        Ok(generated.concepts.len() as u32)
    }

    /// Waits until `deadline` at the latest for server frames and
    /// decodes every complete one received; returns as soon as one
    /// arrives.
    fn poll_until(&mut self, deadline: Instant) -> Result<Vec<ClientEvent>, String> {
        let events = self.take_frames()?;
        if !events.is_empty() {
            return Ok(events);
        }
        let wait = deadline.saturating_duration_since(Instant::now());
        if readable(&self.stream, wait).map_err(|e| format!("poll: {e}"))? {
            let mut chunk = [0u8; 1 << 14];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("the server closed the connection".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    quick_ack(&self.stream).map_err(|e| format!("quick ack: {e}"))?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        self.take_frames()
    }

    fn take_frames(&mut self) -> Result<Vec<ClientEvent>, String> {
        let mut events = Vec::new();
        while let Some(frame) = Frame::take(&mut self.buf).map_err(|e| format!("frame: {e}"))? {
            events.push(decode_client_event(&frame).map_err(|e| format!("decode: {e}"))?);
        }
        Ok(events)
    }

    /// Ends the connection politely with `BYE`.
    pub fn bye(mut self) -> Result<(), String> {
        self.send(&Frame::bare(FrameType::Bye))?;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        Ok(())
    }
}

/// Outcomes of the sessions one phase sent, by cause.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Sessions sent.
    pub sent: u64,
    /// Sessions that ended in `Completed`.
    pub completed: u64,
    /// Completions inside the measurement window.
    pub in_window: u64,
    /// Reply times of the first and the last completion inside the
    /// window.
    pub window_span: Option<(Instant, Instant)>,
    /// Shed by admission (`Busy`).
    pub busy: u64,
    /// Rejected by static analysis.
    pub rejected: u64,
    /// `Error` replies, by message class.
    pub errors: HashMap<&'static str, u64>,
    /// Sessions still unanswered when the phase gave up waiting.
    pub unanswered: u64,
    /// Substitutions reported by completed sessions.
    pub substitutions: u64,
    /// Latency (ms, reply time minus due time) of each completion
    /// inside the window.
    pub latency_ms: Vec<f64>,
    /// How late each open-loop send ran against its due time (ms).
    pub lateness_ms: Vec<f64>,
    /// The generator's own part of each send's lateness: the lateness
    /// less the CPU time the host stole from the VM while the send
    /// waited (ms).
    pub own_lateness_ms: Vec<f64>,
    /// Correctness-gate violations (first few kept verbatim).
    pub violations: Vec<String>,
    /// Reply time of the last completion.
    pub last_reply: Option<Instant>,
}

impl Tally {
    /// Folds another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.in_window += other.in_window;
        self.window_span = match (self.window_span, other.window_span) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (span, None) | (None, span) => span,
        };
        self.busy += other.busy;
        self.rejected += other.rejected;
        for (class, n) in other.errors {
            *self.errors.entry(class).or_default() += n;
        }
        self.unanswered += other.unanswered;
        self.substitutions += other.substitutions;
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.own_lateness_ms.extend(other.own_lateness_ms);
        self.violations.extend(other.violations);
        self.last_reply = self.last_reply.max(other.last_reply);
    }

    fn violation(&mut self, message: String) {
        if self.violations.len() < 8 {
            self.violations.push(message);
        }
    }
}

/// Classifies an `Error` reply's message.
fn error_class(message: &str) -> &'static str {
    if message.contains("could not be served by any strategy") {
        "abandoned"
    } else if message.contains("no candidate") || message.contains("no service") {
        "no-candidate"
    } else if message.contains("re-composition failed") {
        "recompose"
    } else {
        "other"
    }
}

struct Pending {
    activities: u32,
    due: Instant,
}

/// One connection's in-flight sessions and their accounting.
struct Flight {
    pending: HashMap<u64, Pending>,
    tally: Tally,
    window: (Instant, Instant),
}

impl Flight {
    fn new(window: (Instant, Instant)) -> Flight {
        Flight {
            pending: HashMap::new(),
            tally: Tally::default(),
            window,
        }
    }

    fn sent(&mut self, corr: u64, activities: u32, due: Instant) {
        self.tally.sent += 1;
        if self
            .pending
            .insert(corr, Pending { activities, due })
            .is_some()
        {
            self.tally
                .violation(format!("correlation id {corr} reused while outstanding"));
        }
    }

    fn receive(&mut self, event: ClientEvent, at: Instant) {
        let (corr, outcome) = match event {
            ClientEvent::Reply { corr_id, outcome } => (corr_id, outcome),
            ClientEvent::HelloAck(_) => {
                self.tally
                    .violation("unexpected HELLO_ACK mid-session".into());
                return;
            }
        };
        let Some(pending) = self.pending.remove(&corr) else {
            self.tally.violation(format!(
                "reply for correlation id {corr}, which is not outstanding"
            ));
            return;
        };
        match outcome {
            ClientOutcome::Completed(summary) => {
                self.tally.completed += 1;
                self.tally.substitutions += u64::from(summary.substitutions);
                if !summary.success || summary.invocations < pending.activities {
                    self.tally.violation(format!(
                        "session {corr}: success={} with {} invocations for {} activities",
                        summary.success, summary.invocations, pending.activities
                    ));
                }
                if at >= self.window.0 && at < self.window.1 {
                    self.tally.in_window += 1;
                    let first = self.tally.window_span.map_or(at, |(first, _)| first);
                    self.tally.window_span = Some((first, at));
                    let latency = at.saturating_duration_since(pending.due).as_secs_f64() * 1e3;
                    self.tally.latency_ms.push(latency);
                }
                self.tally.last_reply = Some(at);
            }
            ClientOutcome::Busy { .. } => self.tally.busy += 1,
            ClientOutcome::Rejected(_) => self.tally.rejected += 1,
            ClientOutcome::Failed { message, .. } => {
                *self.tally.errors.entry(error_class(&message)).or_default() += 1;
            }
        }
    }

    /// Waits for the rest of the replies, then counts what is left.
    fn drain(&mut self, conn: &mut Conn) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN;
        while !self.pending.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            for event in conn.poll_until(deadline.min(now + Duration::from_millis(100)))? {
                self.receive(event, Instant::now());
            }
        }
        self.tally.unanswered += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }
}

/// What a phase needs to know about the traffic.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    /// The workload whose requests are sent.
    pub workload: Workload,
    /// The seed of the request stream.
    pub seed: u64,
    /// This connection's number.
    pub lane: u64,
    /// How many connections share the phase.
    pub lanes: u64,
    /// Request index of the phase's first request.
    pub base: u64,
}

impl Traffic {
    fn index(&self, k: u64) -> u64 {
        self.base + k * self.lanes + self.lane
    }
}

/// Closed loop: keeps `depth` sessions in flight until `until`; only
/// replies inside `[measure_from, until)` count as the window.
pub fn closed_loop(
    conn: &mut Conn,
    traffic: Traffic,
    depth: usize,
    measure_from: Instant,
    until: Instant,
) -> Result<Tally, String> {
    let mut flight = Flight::new((measure_from, until));
    let mut k = 0;
    while flight.pending.len() < depth {
        let index = traffic.index(k);
        let activities = conn.submit(traffic.workload, traffic.seed, index)?;
        flight.sent(index, activities, Instant::now());
        k += 1;
    }
    loop {
        let now = Instant::now();
        if now >= until {
            break;
        }
        for event in conn.poll_until(until.min(now + Duration::from_millis(100)))? {
            flight.receive(event, Instant::now());
        }
        while flight.pending.len() < depth && Instant::now() < until {
            let index = traffic.index(k);
            let activities = conn.submit(traffic.workload, traffic.seed, index)?;
            flight.sent(index, activities, Instant::now());
            k += 1;
        }
    }
    flight.drain(conn)?;
    Ok(flight.tally)
}

/// How long before a send is due its lane wakes to wait anew (see
/// [`open_loop`]).
const STEAL_GUARD: Duration = Duration::from_millis(2);

/// CPU time the host has stolen from this VM so far, summed over its
/// vCPUs (ms): the `steal` column of `/proc/stat`, in `USER_HZ` ticks
/// (100 per second under the Linux ABI). 0 where it cannot be read.
pub fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks * 10.0)
}

/// Open loop at `rate` sessions/s shared by all lanes: send `k` of the
/// schedule is due at `start + k / rate` and belongs to lane
/// `k % lanes`. Latency runs from the due time, so a stall is charged
/// to every session it delayed.
///
/// Each send's lateness is also recorded less the CPU time the host
/// stole from the VM since the lane last went to wait: a stall of the
/// whole VM delays the server as much as the generator, so only the
/// rest is the generator's own. The lane wakes [`STEAL_GUARD`] before
/// each due time to wait anew, so that this span starts just before the
/// send was due rather than at the previous send.
pub fn open_loop(
    conn: &mut Conn,
    traffic: Traffic,
    rate: f64,
    start: Instant,
    until: Instant,
) -> Result<Tally, String> {
    let mut flight = Flight::new((start, until + DRAIN));
    let due_of =
        |k: u64| start + Duration::from_secs_f64((k * traffic.lanes + traffic.lane) as f64 / rate);
    let mut k = 0;
    let mut steal_at_wait = host_steal_ms();
    loop {
        let due = due_of(k);
        if due >= until {
            break;
        }
        let now = Instant::now();
        if now >= due {
            let index = traffic.index(k);
            let activities = conn.submit(traffic.workload, traffic.seed, index)?;
            flight.sent(index, activities, due);
            let late_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
            let stolen_ms = host_steal_ms() - steal_at_wait;
            flight.tally.lateness_ms.push(late_ms);
            flight
                .tally
                .own_lateness_ms
                .push((late_ms - stolen_ms).max(0.0));
            k += 1;
            continue;
        }
        steal_at_wait = host_steal_ms();
        let wake = if due - now > STEAL_GUARD {
            due - STEAL_GUARD
        } else {
            due
        };
        for event in conn.poll_until(wake)? {
            flight.receive(event, Instant::now());
        }
    }
    flight.drain(conn)?;
    Ok(flight.tally)
}

/// Connects, serves request `index` as a single session and returns
/// when its reply arrived (the "first session served" of set-up and
/// warm boot).
pub fn one_session(
    addr: SocketAddr,
    workload: Workload,
    seed: u64,
    index: u64,
) -> Result<Instant, String> {
    let mut conn = Conn::open(addr, "perfbench-probe")?;
    let mut flight = Flight::new((Instant::now(), Instant::now() + DRAIN));
    let activities = conn.submit(workload, seed, index)?;
    flight.sent(index, activities, Instant::now());
    flight.drain(&mut conn)?;
    conn.bye()?;
    let tally = flight.tally;
    if let Some(v) = tally.violations.first() {
        return Err(format!("first session failed the correctness gate: {v}"));
    }
    match tally.last_reply {
        Some(at) if tally.completed == 1 => Ok(at),
        _ => Err(format!("first session did not complete: {tally:?}")),
    }
}
