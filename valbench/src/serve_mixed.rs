//! The `serve-mixed` workload: an in-process `valmod serve` daemon on
//! TCP loopback, multi-tenant, driven by a closed loop of clients; and
//! the same operations replayed in process against a `TenantRegistry`,
//! which isolates the `valmod-stream` share of each request.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use valmod_core::ValmodConfig;
use valmod_mp::WorkerPool;
use valmod_serve::{serve, Bind, Client, ServerHandle};
use valmod_stream::{StreamingValmod, TenantPolicy, TenantRegistry};

use crate::check::output_checksum;
use crate::ops::{owned_tenants, sub_seed, ClientOps, Op, Verb, APPEND_POINTS};
use crate::report::Report;
use crate::stats::{json_field, ErrorCounts};
use crate::trace::{request_span, span};
use crate::{secs_since, Kind, THREADS};

/// Append batches available per tenant (the loop stops a client that
/// would need more).
pub const MAX_BATCHES: usize = 2048;

/// One multi-tenant serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Generator of every tenant's series.
    pub kind: Kind,
    /// Tenants.
    pub tenants: usize,
    /// Client connections (one thread each), each owning an equal share
    /// of the tenants.
    pub clients: usize,
    /// Points each tenant is bootstrapped with.
    pub bootstrap: usize,
    /// Shortest motif length.
    pub l_min: usize,
    /// Longest motif length.
    pub l_max: usize,
    /// Motif pairs per length.
    pub k: usize,
    /// Accepted samples between a tenant's periodic checkpoints.
    pub checkpoint_every: u64,
}

/// The `serve-mixed` workload itself.
pub const SERVE_MIXED: ServeSpec = ServeSpec {
    kind: Kind::Ecg,
    tenants: 4,
    clients: 2,
    bootstrap: 4096,
    l_min: 64,
    l_max: 83,
    k: 1,
    checkpoint_every: 1024,
};

impl ServeSpec {
    /// The base configuration every tenant is created from.
    #[must_use]
    pub fn config(&self) -> ValmodConfig {
        ValmodConfig::new(self.l_min, self.l_max).with_k(self.k).with_threads(THREADS)
    }

    /// The registry policy, persisting under `dir`.
    #[must_use]
    pub fn policy(&self, dir: &Path) -> TenantPolicy {
        TenantPolicy {
            warmup: Some(self.bootstrap),
            checkpoint_root: Some(dir.to_path_buf()),
            checkpoint_every: self.checkpoint_every,
            ..TenantPolicy::default()
        }
    }

    /// Every tenant's series: the bootstrap points, then the points its
    /// appends send, in order.
    #[must_use]
    pub fn streams(&self, seed: u64) -> Vec<Vec<f64>> {
        let len = self.bootstrap + MAX_BATCHES * APPEND_POINTS;
        (0..self.tenants).map(|t| self.kind.generate(len, sub_seed(seed, t))).collect()
    }

    /// The points of tenant `t`'s append batch `batch`.
    #[must_use]
    pub fn batch<'a>(&self, streams: &'a [Vec<f64>], t: usize, batch: usize) -> &'a [f64] {
        let start = self.bootstrap + batch * APPEND_POINTS;
        &streams[t][start..start + APPEND_POINTS]
    }
}

fn tenant_name(t: usize) -> String {
    format!("t{t}")
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

/// A running daemon with every tenant bootstrapped.
pub struct Session {
    handle: ServerHandle,
    addr: String,
    dir: PathBuf,
}

impl Session {
    /// Starts the daemon on `127.0.0.1:0` with `pool`, persisting under
    /// `dir`, then opens and bootstraps every tenant over one connection.
    ///
    /// # Errors
    ///
    /// Socket, directory or protocol failures.
    pub fn start(
        spec: &ServeSpec,
        streams: &[Vec<f64>],
        pool: &Arc<WorkerPool>,
        dir: PathBuf,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let handle = {
            let _s = span("serve", "serve");
            serve(
                &Bind::Tcp("127.0.0.1:0".into()),
                Arc::clone(pool),
                spec.config(),
                spec.policy(&dir),
            )?
        };
        let addr = handle.local_addr().to_string();
        let session = Self { handle, addr, dir };
        let mut client = Client::connect_tcp(&session.addr)?;
        for (t, stream) in streams.iter().enumerate() {
            let name = tenant_name(t);
            let _s = span("serve", "open+bootstrap");
            let opened = client.open(&name)?;
            let boot = client.append(&name, &stream[..spec.bootstrap])?;
            if !opened.first().is_some_and(|l| l.contains("\"status\":\"created\""))
                || !boot.first().is_some_and(|l| l.contains("\"bootstrapped\":true"))
            {
                return Err(io_err(format!(
                    "tenant {name} did not bootstrap: {opened:?} {boot:?}"
                )));
            }
        }
        Ok(session)
    }

    /// The daemon's address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Shuts the daemon down (checkpointing every tenant), waits for all
    /// its threads, and removes its directory.
    ///
    /// # Errors
    ///
    /// Socket failures, or a shutdown that was not acknowledged.
    pub fn shutdown(self) -> std::io::Result<()> {
        let lines = Client::connect_tcp(&self.addr)?.shutdown()?;
        let acknowledged = lines.iter().any(|l| l.contains("\"event\":\"shutdown\""));
        self.handle.join();
        std::fs::remove_dir_all(&self.dir)?;
        if acknowledged {
            Ok(())
        } else {
            Err(io_err(format!("shutdown not acknowledged: {lines:?}")))
        }
    }
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds.
    Deadline(f64),
    /// After this many operations per client.
    Ops(u64),
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The verb.
    pub verb: Verb,
    /// Round-trip time, s.
    pub secs: f64,
    /// Response payload bytes.
    pub bytes: usize,
}

/// What a closed loop did.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Successful requests.
    pub samples: Vec<Sample>,
    /// Every operation attempted, per client, in order.
    pub executed: Vec<Vec<Op>>,
    /// Successful appends per tenant (batches `0..n` were applied).
    pub appended: Vec<usize>,
    /// Typed error lines by code.
    pub errors: ErrorCounts,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, returned a typed error or a malformed answer.
    pub failed: u64,
    /// Wall time of the loop, s.
    pub wall_s: f64,
}

impl LoopResult {
    /// Round-trip times of `verb`, ms.
    #[must_use]
    pub fn ms(&self, verb: Verb) -> Vec<f64> {
        self.samples.iter().filter(|s| s.verb == verb).map(|s| s.secs * 1e3).collect()
    }

    /// Response sizes of `verb`, bytes.
    #[must_use]
    pub fn bytes(&self, verb: Verb) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.samples.iter().filter(|s| s.verb == verb).map(|s| s.bytes as f64).collect()
    }
}

/// Whether a response is the well-formed answer to `verb`.
fn well_formed(verb: Verb, lines: &[String]) -> bool {
    let Some(head) = lines.first() else { return false };
    match verb {
        Verb::Append => {
            head.contains("\"event\":\"append\"")
                && head.contains(&format!("\"accepted\":{APPEND_POINTS},"))
        }
        Verb::Valmap => {
            head.contains("\"event\":\"valmap\"")
                && head.contains(&format!("\"entries\":{}}}", lines.len() - 1))
        }
        Verb::Snapshot => json_field(head, "checksum").is_some(),
    }
}

struct ClientResult {
    samples: Vec<Sample>,
    executed: Vec<Op>,
    appended: Vec<(usize, usize)>,
    errors: ErrorCounts,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

/// One client thread of the closed loop.
fn client_loop(
    spec: &ServeSpec,
    addr: &str,
    streams: &[Vec<f64>],
    seed: u64,
    client: usize,
    stop: Stop,
) -> ClientResult {
    let owned = owned_tenants(client, spec.clients, spec.tenants);
    let mut res = ClientResult {
        samples: Vec::new(),
        executed: Vec::new(),
        appended: owned.iter().map(|&t| (t, 0)).collect(),
        errors: ErrorCounts::default(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    let Ok(mut conn) = Client::connect_tcp(addr) else {
        res.attempted = 1;
        res.failed = 1;
        return res;
    };
    for (k, op) in (1u64..).zip(ClientOps::new(seed, client, owned)) {
        let done = match stop {
            Stop::Deadline(s) => secs_since(start) >= s,
            Stop::Ops(n) => k > n,
        };
        if done || (op.verb == Verb::Append && op.batch >= MAX_BATCHES) {
            break;
        }
        let name = tenant_name(op.tenant);
        res.attempted += 1;
        res.executed.push(op);
        let _s = request_span("serve", op.verb.name(), (client as u64) << 32 | k);
        let t = Instant::now();
        let response = match op.verb {
            Verb::Append => conn.append(&name, spec.batch(streams, op.tenant, op.batch)),
            Verb::Valmap => conn.request(&format!("valmap {name}")),
            Verb::Snapshot => conn.snapshot(&name),
        };
        let secs = secs_since(t);
        let Ok(lines) = response else {
            // The connection is gone; nothing after this can be sent.
            res.failed += 1;
            break;
        };
        let typed_error = res.errors.count_response(&lines);
        if typed_error || !well_formed(op.verb, &lines) {
            res.failed += 1;
            continue;
        }
        if op.verb == Verb::Append {
            let slot =
                res.appended.iter_mut().find(|(t, _)| *t == op.tenant).expect("owned tenant");
            // Appends apply in batch order; a gap would desynchronise the
            // tenant from its reference, which the final check catches.
            if slot.1 == op.batch {
                slot.1 += 1;
            }
        }
        let bytes = lines.iter().map(|l| l.len() + 1).sum::<usize>().saturating_sub(1);
        res.samples.push(Sample { verb: op.verb, secs, bytes });
    }
    res.wall_s = secs_since(start);
    res
}

/// Runs the closed loop: one thread and connection per client, each
/// sending its next operation when the previous answer arrives.
#[must_use]
pub fn run_loop(
    spec: &ServeSpec,
    session: &Session,
    streams: &[Vec<f64>],
    seed: u64,
    stop: Stop,
) -> LoopResult {
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| scope.spawn(move || client_loop(spec, session.addr(), streams, seed, c, stop)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = LoopResult { appended: vec![0; spec.tenants], ..LoopResult::default() };
    for r in results {
        out.samples.extend(r.samples);
        out.executed.push(r.executed);
        for (t, n) in r.appended {
            out.appended[t] = n;
        }
        out.errors.merge(&r.errors);
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.wall_s = out.wall_s.max(r.wall_s);
    }
    out
}

/// Round trips of `requests` no-op `hello` requests on a fresh
/// connection, ms: the transport and framing cost of one request.
///
/// # Errors
///
/// Socket failures.
pub fn noop_rtt_ms(session: &Session, requests: usize) -> std::io::Result<Vec<f64>> {
    let mut conn = Client::connect_tcp(session.addr())?;
    let mut out = Vec::with_capacity(requests);
    for _ in 0..requests {
        let _s = span("serve", "hello");
        let t = Instant::now();
        let lines = conn.hello(None)?;
        out.push(secs_since(t) * 1e3);
        if !lines.first().is_some_and(|l| l.contains("\"event\":\"hello\"")) {
            return Err(io_err(format!("bad hello answer: {lines:?}")));
        }
    }
    Ok(out)
}

/// Checks every tenant's served `snapshot` checksum against a dedicated
/// `StreamingValmod` over the same samples.
pub fn check_tenants(
    report: &mut Report,
    spec: &ServeSpec,
    session: &Session,
    streams: &[Vec<f64>],
    appended: &[usize],
) {
    let _s = span("check", "check_tenants");
    let mut conn = match Client::connect_tcp(session.addr()) {
        Ok(c) => c,
        Err(e) => return report.fail(&format!("cannot connect for the tenant check: {e}")),
    };
    for (t, &batches) in appended.iter().enumerate() {
        let name = tenant_name(t);
        let served = conn.snapshot(&name).ok().and_then(|lines| {
            lines.first().and_then(|l| json_field(l, "checksum")).map(str::to_string)
        });
        let samples = &streams[t][..spec.bootstrap + batches * APPEND_POINTS];
        let dedicated = StreamingValmod::new(samples, spec.config())
            .and_then(|e| e.snapshot())
            .map(|out| output_checksum(&out));
        match (served, dedicated) {
            (Some(s), Ok(d)) => report.check(s == d, || {
                format!(
                    "tenant {name}: served snapshot {s} != dedicated engine {d} ({} points)",
                    samples.len()
                )
            }),
            (s, d) => report.fail(&format!("tenant {name}: no checksum to compare ({s:?}, {d:?})")),
        }
    }
}

/// Per-verb costs of the stream layer alone.
#[derive(Debug, Clone, Default)]
pub struct StreamCosts {
    /// `TenantRegistry::append` plus the delta poll the daemon makes, ms.
    pub append_ms: Vec<f64>,
    /// The registry's VALMAP read, ms.
    pub valmap_ms: Vec<f64>,
    /// `StreamingValmod::snapshot` through the registry, ms.
    pub snapshot_ms: Vec<f64>,
}

/// Replays the operations a served loop executed, client by client on
/// as many threads, directly against a `TenantRegistry` on `pool`
/// persisting under `dir` (removed afterwards).
pub fn replay_in_process(
    report: &mut Report,
    spec: &ServeSpec,
    streams: &[Vec<f64>],
    pool: &Arc<WorkerPool>,
    dir: &Path,
    executed: &[Vec<Op>],
) -> StreamCosts {
    let registry = TenantRegistry::new(Arc::clone(pool), spec.config(), spec.policy(dir));
    for (t, stream) in streams.iter().enumerate() {
        let name = tenant_name(t);
        let _s = span("stream", "TenantRegistry::open+append");
        let ok = registry.open(&name).is_ok()
            && registry.append(&name, &stream[..spec.bootstrap]).is_ok_and(|r| r.bootstrapped);
        report.check(ok, || format!("in-process tenant {name} did not bootstrap"));
    }
    let costs = Mutex::new(StreamCosts::default());
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for ops in executed {
            let (registry, costs, failures) = (&registry, &costs, &failures);
            scope.spawn(move || {
                for op in ops {
                    let name = tenant_name(op.tenant);
                    let t = Instant::now();
                    let ok = match op.verb {
                        Verb::Append => {
                            let _s = span("stream", "TenantRegistry::append");
                            registry.append(&name, spec.batch(streams, op.tenant, op.batch)).is_ok()
                                && registry
                                    .with_session(&name, |s| {
                                        s.engine_mut().map(|e| e.poll_deltas().len())
                                    })
                                    .is_ok()
                        }
                        Verb::Valmap => {
                            let _s = span("stream", "TenantRegistry::valmap");
                            registry
                                .with_session(&name, |s| {
                                    s.engine_mut().map(|e| e.valmap().mpn.len())
                                })
                                .is_ok_and(|n| n.is_some())
                        }
                        Verb::Snapshot => {
                            let _s = span("stream", "StreamingValmod::snapshot");
                            registry
                                .with_session(&name, |s| s.engine().map(|e| e.snapshot().is_ok()))
                                .is_ok_and(|r| r == Some(true))
                        }
                    };
                    let ms = secs_since(t) * 1e3;
                    if !ok {
                        failures
                            .lock()
                            .expect("failure list")
                            .push(format!("{} {name}", op.verb.name()));
                    }
                    let mut c = costs.lock().expect("cost table");
                    match op.verb {
                        Verb::Append => c.append_ms.push(ms),
                        Verb::Valmap => c.valmap_ms.push(ms),
                        Verb::Snapshot => c.snapshot_ms.push(ms),
                    }
                }
            });
        }
    });
    for f in failures.into_inner().expect("failure list") {
        report.fail(&format!("in-process replay: {f} failed"));
    }
    let _ = std::fs::remove_dir_all(dir);
    costs.into_inner().expect("cost table")
}

/// One timed set-up: generates every tenant's series and starts a
/// bootstrapped session; returns it with the series and the set-up time
/// in seconds. The caller shuts the session down.
///
/// # Errors
///
/// Set-up failures.
pub fn timed_setup(
    spec: &ServeSpec,
    seed: u64,
    pool: &Arc<WorkerPool>,
    dir: PathBuf,
) -> std::io::Result<(Session, Vec<Vec<f64>>, f64)> {
    let t = Instant::now();
    let streams = spec.streams(seed);
    let session = Session::start(spec, &streams, pool, dir)?;
    Ok((session, streams, secs_since(t)))
}
