//! Load generators over loopback TCP.
//!
//! * [`open_loop`] sends requests on a fixed schedule on one pipelined
//!   connection (a writer thread sends, the calling thread reads replies in
//!   order) and times each request from its **due** time, so a stall counts
//!   against every request queued behind it. Optionally a second generator
//!   thread sends `WAVE`s on a fixed schedule on a second connection and
//!   times each one until the replica has applied it.
//! * [`closed_loop_batch`] sends one `BATCH` at a time on one connection.
//! * [`closed_loop_single`] sends one `DIST`/`PATH` at a time.
//!
//! Nothing reconnects: a connection that breaks fails every request still
//! owed on it, and the failure is counted.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ftspan::FaultSet;
use ftspan_oracle::{Query, QueryKind};
use ftspan_server::protocol::{decode_reply, encode_request, read_frame, write_frame};
use ftspan_server::{
    BatchEntry, Client, Frame, Reply, Request, ShedReason, WaveSummary, WireAnswer,
};

/// How long a reader waits on a silent connection before it gives up on
/// the replies still owed.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Monotonic run clock; all timestamps are nanoseconds since its origin.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps until `t_ns` (no-op if it has passed).
    pub fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// What came back for one request.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// An answer, to be checked against the mirror.
    Answer(WireAnswer),
    /// An explicit shed, with its reason.
    Shed(ShedReason),
    /// A typed error reply.
    Error(String),
    /// The connection failed before the reply arrived.
    Io(String),
}

/// Failure classes counted against the attempted operations.
#[derive(Clone, Debug, Default)]
pub struct Failures {
    /// Shed: rate limited.
    pub shed_rate: u64,
    /// Shed: admission control.
    pub shed_admission: u64,
    /// Shed: read timeout.
    pub shed_timeout: u64,
    /// Typed error replies.
    pub error: u64,
    /// Connection failures and undecodable replies.
    pub io: u64,
    /// The first error or I/O failure, for the log.
    pub first: Option<String>,
}

impl Failures {
    /// Counts one outcome; `true` when it failed.
    pub fn count(&mut self, outcome: &Outcome) -> bool {
        match outcome {
            Outcome::Answer(_) => return false,
            Outcome::Shed(ShedReason::RateLimited) => self.shed_rate += 1,
            Outcome::Shed(ShedReason::Admission) => self.shed_admission += 1,
            Outcome::Shed(ShedReason::Timeout) => self.shed_timeout += 1,
            Outcome::Error(e) => {
                self.error += 1;
                self.first
                    .get_or_insert_with(|| format!("error reply: {e}"));
            }
            Outcome::Io(e) => {
                self.io += 1;
                self.first.get_or_insert_with(|| format!("I/O: {e}"));
            }
        }
        true
    }

    /// All failures.
    pub fn total(&self) -> u64 {
        self.shed_rate + self.shed_admission + self.shed_timeout + self.error + self.io
    }
}

fn outcome_of(reply: Reply) -> Outcome {
    match reply {
        Reply::Answer(a) => Outcome::Answer(a),
        Reply::Shed(reason) => Outcome::Shed(reason),
        Reply::Error(e) => Outcome::Error(e),
        other => Outcome::Io(format!("unexpected reply {other:?}")),
    }
}

fn request_of(query: &Query) -> Request {
    match query.kind {
        QueryKind::Distance => Request::Distance {
            u: query.u,
            v: query.v,
            faults: query.faults.clone(),
        },
        QueryKind::Path => Request::Path {
            u: query.u,
            v: query.v,
            faults: query.faults.clone(),
        },
    }
}

/// One open-loop read.
#[derive(Clone, Debug)]
pub struct ReadRecord {
    /// The query sent.
    pub query: Query,
    /// When it was due (ns).
    pub due_ns: u64,
    /// When it was written (ns); `u64::MAX` if never sent.
    pub sent_ns: u64,
    /// When its reply was decoded (ns); `u64::MAX` if none arrived.
    pub done_ns: u64,
    /// What came back.
    pub outcome: Outcome,
}

impl ReadRecord {
    /// Latency from the due time in µs; failures are infinite.
    pub fn latency_us(&self) -> f64 {
        match self.outcome {
            Outcome::Answer(_) if self.done_ns != u64::MAX => {
                self.done_ns.saturating_sub(self.due_ns) as f64 / 1e3
            }
            _ => f64::INFINITY,
        }
    }
}

/// One wave sent beside the reads.
#[derive(Clone, Debug)]
pub struct WaveRecord {
    /// The wave.
    pub wave: FaultSet,
    /// When it was written (ns).
    pub sent_ns: u64,
    /// When its reply arrived (ns): the primary has published the epoch.
    pub published_ns: u64,
    /// When the replica reached the reply's epoch (ns).
    pub replicated_ns: u64,
    /// The primary's summary, or why there is none.
    pub reply: Result<WaveSummary, String>,
}

impl WaveRecord {
    /// `WAVE` request → reply, in ms.
    pub fn publish_ms(&self) -> f64 {
        (self.published_ns - self.sent_ns) as f64 / 1e6
    }

    /// `WAVE` request → replica at the reply's epoch, in ms.
    pub fn replicated_ms(&self) -> f64 {
        (self.replicated_ns - self.sent_ns) as f64 / 1e6
    }
}

/// Waves to send beside an open-loop read phase.
pub struct WaveJob<'a> {
    /// The primary.
    pub addr: SocketAddr,
    /// The waves, sent one per interval.
    pub waves: Vec<FaultSet>,
    /// Interval between wave due times.
    pub interval: Duration,
    /// The replica's current epoch.
    pub replica_epoch: &'a (dyn Fn() -> u64 + Sync),
}

/// Client-side spans recorded in traced mode.
#[derive(Debug, Default)]
pub struct Spans {
    /// `encode_request` time per request (ns).
    pub encode_ns: Vec<u64>,
    /// `decode_reply` time per reply (ns).
    pub decode_ns: Vec<u64>,
    /// Request frame bodies, for the codec probe.
    pub request_frames: Vec<Vec<u8>>,
    /// Reply frame bodies, for the codec probe.
    pub reply_frames: Vec<Vec<u8>>,
}

/// Frames kept per traced phase for the codec probe.
const KEPT_FRAMES: usize = 4_096;

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Every read, in send order.
    pub reads: Vec<ReadRecord>,
    /// Every wave, in send order.
    pub waves: Vec<WaveRecord>,
    /// How late the writer sent each request (µs).
    pub gen_late_us: Vec<f64>,
    /// Requests sent but unanswered when the last one was due.
    pub backlog_end: usize,
    /// Client spans (traced mode only).
    pub spans: Option<Spans>,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends `queries` at `rate` q/s on one pipelined connection to `addr`,
/// with `waves` beside them, and collects every reply.
pub fn open_loop(
    addr: SocketAddr,
    queries: Vec<Query>,
    rate: f64,
    clock: &Clock,
    waves: Option<WaveJob<'_>>,
    traced: bool,
) -> OpenLoop {
    let n = queries.len();
    let period_ns = 1e9 / rate;
    let start_ns = clock.now_ns() + 2_000_000;
    let due = |i: usize| start_ns + (i as f64 * period_ns) as u64;
    let mut out = OpenLoop {
        reads: queries
            .into_iter()
            .enumerate()
            .map(|(i, query)| ReadRecord {
                query,
                due_ns: due(i),
                sent_ns: u64::MAX,
                done_ns: u64::MAX,
                outcome: Outcome::Io("never sent".into()),
            })
            .collect(),
        spans: traced.then(Spans::default),
        ..OpenLoop::default()
    };
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            for r in &mut out.reads {
                r.outcome = Outcome::Io(format!("connect: {e}"));
            }
            return out;
        }
    };
    let mut reader = stream.try_clone().expect("clone a connected socket");
    reader
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("set a read timeout");
    let sent = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let requests: Vec<Request> = out.reads.iter().map(|r| request_of(&r.query)).collect();
        let (sent, received, writer_done) = (&sent, &received, &writer_done);
        let writer = scope.spawn(move || {
            let mut stream = stream;
            let mut sent_at = Vec::with_capacity(n);
            let mut late = Vec::with_capacity(n);
            let mut spans = traced.then(Spans::default);
            for (i, request) in requests.iter().enumerate() {
                clock.sleep_until(due(i));
                let t = clock.now_ns();
                let body = match spans.as_mut() {
                    Some(spans) => {
                        let t0 = Instant::now();
                        let body = encode_request(request);
                        spans.encode_ns.push(t0.elapsed().as_nanos() as u64);
                        if spans.request_frames.len() < KEPT_FRAMES {
                            spans.request_frames.push(body.clone());
                        }
                        body
                    }
                    None => encode_request(request),
                };
                if write_frame(&mut stream, &body).is_err() {
                    break;
                }
                sent_at.push(t);
                late.push(t.saturating_sub(due(i)) as f64 / 1e3);
                sent.fetch_add(1, Ordering::SeqCst);
            }
            let backlog = sent.load(Ordering::SeqCst) - received.load(Ordering::SeqCst);
            writer_done.store(true, Ordering::SeqCst);
            (sent_at, late, backlog, spans)
        });
        let waver = waves.map(|job| scope.spawn(move || run_waves(job, clock, start_ns)));

        // Replies arrive in request order on one connection.
        let mut decode_ns = Vec::new();
        let mut reply_frames = Vec::new();
        let mut failure: Option<String> = None;
        let mut silent_since = Instant::now();
        let mut i = 0;
        while i < n && failure.is_none() {
            if writer_done.load(Ordering::SeqCst) && i >= sent.load(Ordering::SeqCst) {
                break;
            }
            match read_frame(&mut reader) {
                Ok(Some(Frame::Intact(body))) => {
                    let t0 = Instant::now();
                    let reply = decode_reply(&body);
                    if traced {
                        decode_ns.push(t0.elapsed().as_nanos() as u64);
                        if reply_frames.len() < KEPT_FRAMES {
                            reply_frames.push(body);
                        }
                    }
                    let record = &mut out.reads[i];
                    record.done_ns = clock.now_ns();
                    record.outcome = match reply {
                        Ok(reply) => outcome_of(reply),
                        Err(e) => Outcome::Io(format!("undecodable reply: {e}")),
                    };
                    received.fetch_add(1, Ordering::SeqCst);
                    silent_since = Instant::now();
                    i += 1;
                }
                Ok(Some(Frame::Corrupt)) => failure = Some("corrupt reply frame".into()),
                Ok(None) => failure = Some("server closed the connection".into()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if silent_since.elapsed() > IO_TIMEOUT {
                        failure = Some("no reply within the I/O timeout".into());
                    }
                }
                Err(e) => failure = Some(format!("read: {e}")),
            }
        }
        let _ = reader.shutdown(std::net::Shutdown::Both);
        let (sent_at, late, backlog, spans) = writer.join().expect("writer thread");
        for (record, t) in out.reads.iter_mut().zip(sent_at) {
            record.sent_ns = t;
        }
        for record in &mut out.reads[i..] {
            record.outcome = Outcome::Io(match (&failure, record.sent_ns) {
                (Some(f), _) => f.clone(),
                (None, u64::MAX) => "write failed".into(),
                (None, _) => "unanswered".into(),
            });
        }
        out.gen_late_us = late;
        out.backlog_end = backlog;
        if let (Some(all), Some(mut spans)) = (out.spans.as_mut(), spans) {
            spans.decode_ns = decode_ns;
            spans.reply_frames = reply_frames;
            *all = spans;
        }
        if let Some(waver) = waver {
            out.waves = waver.join().expect("wave thread");
        }
    });
    out
}

/// Sends `job.waves` one per interval from `start_ns`, timing each until
/// its reply and until the replica reaches its epoch; a wave is sent only
/// after the previous one reached the replica.
fn run_waves(job: WaveJob<'_>, clock: &Clock, start_ns: u64) -> Vec<WaveRecord> {
    let mut records = Vec::new();
    let mut client =
        match Client::connect(job.addr) {
            Ok(c) => c,
            Err(e) => {
                return vec![WaveRecord {
                    wave: job.waves.first().cloned().unwrap_or_else(|| {
                        FaultSet::empty(crate::workload::params().fault_model())
                    }),
                    sent_ns: 0,
                    published_ns: 0,
                    replicated_ns: 0,
                    reply: Err(format!("connect: {e}")),
                }]
            }
        };
    let interval = job.interval.as_nanos() as u64;
    for (i, wave) in job.waves.into_iter().enumerate() {
        clock.sleep_until(start_ns + (i as u64 + 1) * interval);
        let sent_ns = clock.now_ns();
        let reply = client.wave(wave.clone());
        let published_ns = clock.now_ns();
        let reply = match reply {
            Ok(Reply::Wave(summary)) => Ok(summary),
            Ok(other) => Err(format!("unexpected wave reply {other:?}")),
            Err(e) => Err(format!("wave I/O: {e}")),
        };
        let failed = reply.is_err();
        let mut replicated_ns = published_ns;
        if let Ok(summary) = &reply {
            let deadline = Instant::now() + IO_TIMEOUT;
            while (job.replica_epoch)() < summary.epoch && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            replicated_ns = clock.now_ns();
        }
        let reply = match reply {
            Ok(summary) if (job.replica_epoch)() < summary.epoch => {
                Err(format!("replica never reached epoch {}", summary.epoch))
            }
            other => other,
        };
        records.push(WaveRecord {
            wave,
            sent_ns,
            published_ns,
            replicated_ns,
            reply,
        });
        if failed {
            break;
        }
    }
    records
}

/// One closed-loop `BATCH`.
#[derive(Debug)]
pub struct BatchRecord {
    /// The queries, in request order.
    pub queries: Vec<Query>,
    /// Per-entry outcomes (all failed when the request failed).
    pub outcomes: Vec<Outcome>,
    /// When the request was written (ns).
    pub sent_ns: u64,
    /// When the reply was decoded (ns).
    pub done_ns: u64,
}

fn one_batch(client: &mut Client, queries: Vec<Query>, clock: &Clock) -> BatchRecord {
    // The request is built before the clock starts and taken apart after
    // it stops: the benchmark keeps the queries, which is bookkeeping, not
    // part of the round trip.
    let request = Request::Batch(queries);
    let sent_ns = clock.now_ns();
    let reply = client.call(&request);
    let done_ns = clock.now_ns();
    let Request::Batch(queries) = request else {
        unreachable!("built as a BATCH above")
    };
    let n = queries.len();
    let outcomes = match reply {
        Ok(Reply::Batch(entries)) if entries.len() == n => entries
            .into_iter()
            .map(|e| match e {
                BatchEntry::Answered(a) => Outcome::Answer(a),
                BatchEntry::Shed => Outcome::Shed(ShedReason::Admission),
            })
            .collect(),
        Ok(Reply::Batch(entries)) => {
            vec![Outcome::Io(format!("{} entries for {n} queries", entries.len())); n]
        }
        Ok(Reply::Shed(reason)) => vec![Outcome::Shed(reason); n],
        Ok(Reply::Error(e)) => vec![Outcome::Error(e); n],
        Ok(other) => vec![Outcome::Io(format!("unexpected batch reply {other:?}")); n],
        Err(e) => vec![Outcome::Io(format!("batch: {e}")); n],
    };
    BatchRecord {
        queries,
        outcomes,
        sent_ns,
        done_ns,
    }
}

fn failed_batch(queries: Vec<Query>, why: String) -> BatchRecord {
    let outcomes = vec![Outcome::Io(why); queries.len()];
    BatchRecord {
        queries,
        outcomes,
        sent_ns: 0,
        done_ns: 0,
    }
}

/// Sends `queries` as one `BATCH` on a fresh connection.
pub fn batch_once(addr: SocketAddr, queries: Vec<Query>, clock: &Clock) -> BatchRecord {
    match Client::connect(addr) {
        Ok(mut client) => one_batch(&mut client, queries, clock),
        Err(e) => failed_batch(queries, format!("connect: {e}")),
    }
}

/// Sends `count` `BATCH`es of `batch_len` queries drawn from `stream`, one
/// at a time on one connection.
pub fn closed_loop_batch(
    addr: SocketAddr,
    stream: &mut impl Iterator<Item = Query>,
    batch_len: usize,
    count: usize,
    clock: &Clock,
) -> Vec<BatchRecord> {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let queries = stream.take(batch_len).collect();
            return vec![failed_batch(queries, format!("connect: {e}"))];
        }
    };
    let mut records = Vec::new();
    for _ in 0..count {
        let record = one_batch(
            &mut client,
            stream.by_ref().take(batch_len).collect(),
            clock,
        );
        let failed = record.outcomes.iter().any(|o| matches!(o, Outcome::Io(_)));
        records.push(record);
        if failed {
            break;
        }
    }
    records
}

/// Sends each query alone and waits for its reply before the next.
pub fn closed_loop_single(addr: SocketAddr, queries: Vec<Query>, clock: &Clock) -> Vec<ReadRecord> {
    let mut records: Vec<ReadRecord> = queries
        .into_iter()
        .map(|query| ReadRecord {
            query,
            due_ns: 0,
            sent_ns: u64::MAX,
            done_ns: u64::MAX,
            outcome: Outcome::Io("never sent".into()),
        })
        .collect();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            for r in &mut records {
                r.outcome = Outcome::Io(format!("connect: {e}"));
            }
            return records;
        }
    };
    for record in &mut records {
        record.sent_ns = clock.now_ns();
        record.due_ns = record.sent_ns;
        let reply = client.call(&request_of(&record.query));
        record.done_ns = clock.now_ns();
        match reply {
            Ok(reply) => record.outcome = outcome_of(reply),
            Err(e) => {
                record.outcome = Outcome::Io(format!("call: {e}"));
                break;
            }
        }
    }
    records
}
