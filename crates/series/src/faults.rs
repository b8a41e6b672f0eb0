//! Deterministic fault injection for the persistence I/O sites.
//!
//! The crash-safety tests need to fail *exactly one chosen* I/O
//! operation — the 3rd checkpoint write, the fsync of a journal batch,
//! the rename that publishes a generation — and then prove recovery is
//! byte-exact. This module is that switchboard: every persistence I/O
//! site calls [`check`] (or routes writes through [`write_all`]) with a
//! stable site name, and an armed [`FaultPlan`] decides which operation
//! fails, with what error, and whether a write is torn short first.
//!
//! Plans are armed two ways:
//!
//! * an in-process RAII guard ([`arm`]) installs a **thread-scoped**
//!   plan: only I/O issued by the arming thread counts against it or
//!   fails, so tests running concurrently in one process never see each
//!   other's plans (the persistence I/O sites run on the caller's
//!   thread). The guard is `!Send` — it must be dropped on the thread
//!   whose plan it holds;
//! * the `VALMOD_FAULT` environment variable (`site:after:times:kind`,
//!   parsed once per process) installs one **process-wide** plan — the
//!   cross-process knob for CLI integration tests. A thread with its own
//!   armed plan uses that plan instead.
//!
//! With neither armed, every site is two relaxed atomic loads.
//!
//! The same guard doubles as the *enumerator* for kill-at-every-point
//! tests: arm a plan whose `after` is `u64::MAX` (it never fires), run
//! the pipeline once, and [`FaultGuard::hits`] reports how many matching
//! operations exist — the loop bound for "crash at operation k, for
//! every k".
//!
//! Not a public API — no stability guarantees.

#![doc(hidden)]

use std::cell::RefCell;
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// What happens when the planned operation count is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an error of this kind (nothing is
    /// written / read). With `times: u64::MAX` this models a crash: the
    /// triggering operation and every later one fail, so no further
    /// bytes can reach disk — observationally a SIGKILL at that point.
    Err(io::ErrorKind),
    /// The first triggered *write* is torn: only this many bytes of the
    /// buffer land before the error — a short/torn write. Later
    /// triggered operations fail like [`FaultKind::Err`].
    ShortWrite(usize),
}

/// A deterministic fault: the `after`-th matching operation (0-based,
/// counting only operations whose site starts with `site`) and the
/// `times - 1` matching operations after it fail with `kind`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Site-name prefix filter (`None` matches every site).
    pub site: Option<String>,
    /// 0-based index of the first matching operation that fails.
    pub after: u64,
    /// How many consecutive matching operations fail (`u64::MAX` =
    /// every one from `after` on — the crash model).
    pub times: u64,
    /// The failure behavior.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A crash at matching operation `k`: it and everything after fail.
    #[must_use]
    pub fn crash_at(site: Option<&str>, k: u64) -> Self {
        Self {
            site: site.map(str::to_owned),
            after: k,
            times: u64::MAX,
            kind: FaultKind::Err(io::ErrorKind::Other),
        }
    }

    /// A counting-only plan: never fires, but [`FaultGuard::hits`]
    /// reports how many matching operations ran — the enumerator for
    /// kill-at-every-point loops.
    #[must_use]
    pub fn observe(site: Option<&str>) -> Self {
        Self {
            site: site.map(str::to_owned),
            after: u64::MAX,
            times: 0,
            kind: FaultKind::Err(io::ErrorKind::Other),
        }
    }
}

/// Number of live [`FaultGuard`]s across all threads — with
/// [`ENV_ARMED`], the fast-path gate every instrumented site reads first.
static GUARDS: AtomicUsize = AtomicUsize::new(0);

/// Whether the `VALMOD_FAULT` plan is installed.
static ENV_ARMED: AtomicBool = AtomicBool::new(false);

/// The process-wide `VALMOD_FAULT` plan and its match counter.
static ENV_STATE: Mutex<Option<PlanState>> = Mutex::new(None);

thread_local! {
    /// This thread's armed plan, if any (see [`arm`]).
    static LOCAL: RefCell<Option<PlanState>> = const { RefCell::new(None) };
}

#[derive(Debug)]
struct PlanState {
    plan: FaultPlan,
    seen: u64,
}

/// Keeps this thread's plan installed; restores the thread's previous
/// plan (usually none) on drop. [`FaultGuard::hits`] reads the number of
/// matching operations observed so far. Not `Send`: the plan lives in
/// the arming thread's local state.
#[derive(Debug)]
pub struct FaultGuard {
    prev: Option<PlanState>,
    _thread_bound: PhantomData<*const ()>,
}

impl FaultGuard {
    /// Matching operations this thread issued since arming.
    #[must_use]
    pub fn hits(&self) -> u64 {
        LOCAL.with_borrow(|local| local.as_ref().map_or(0, |s| s.seen))
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL.with_borrow_mut(|local| *local = prev);
        GUARDS.fetch_sub(1, Ordering::SeqCst);
    }
}

fn lock_env() -> MutexGuard<'static, Option<PlanState>> {
    ENV_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` for the calling thread, for the guard's lifetime.
/// Other threads are unaffected; a nested `arm` on the same thread
/// replaces the plan until its own guard drops.
#[must_use]
pub fn arm(plan: FaultPlan) -> FaultGuard {
    let prev = LOCAL.with_borrow_mut(|local| local.replace(PlanState { plan, seen: 0 }));
    GUARDS.fetch_add(1, Ordering::SeqCst);
    FaultGuard { prev, _thread_bound: PhantomData }
}

/// The `VALMOD_FAULT` plan, parsed once per process.
///
/// Format: `site:after:times:kind` where `site` is a site-name prefix
/// (`*` = any), `times` may be `inf`, and `kind` is `err-<name>`
/// (`interrupted`, `wouldblock`, `timedout`, `notfound`, `other`) or
/// `short-<bytes>`. Example: `VALMOD_FAULT=ckpt.write:2:inf:err-other`.
fn env_plan() -> &'static Option<FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let raw = std::env::var("VALMOD_FAULT").ok()?;
        let mut parts = raw.splitn(4, ':');
        let site = match parts.next()? {
            "*" | "" => None,
            s => Some(s.to_owned()),
        };
        let after = parts.next()?.parse().ok()?;
        let times = match parts.next()? {
            "inf" => u64::MAX,
            t => t.parse().ok()?,
        };
        let kind = match parts.next()? {
            "err-interrupted" => FaultKind::Err(io::ErrorKind::Interrupted),
            "err-wouldblock" => FaultKind::Err(io::ErrorKind::WouldBlock),
            "err-timedout" => FaultKind::Err(io::ErrorKind::TimedOut),
            "err-notfound" => FaultKind::Err(io::ErrorKind::NotFound),
            "err-other" => FaultKind::Err(io::ErrorKind::Other),
            s => {
                let n = s.strip_prefix("short-")?.parse().ok()?;
                FaultKind::ShortWrite(n)
            }
        };
        Some(FaultPlan { site, after, times, kind })
    })
}

/// Lazily installs the env plan (first instrumented operation of the
/// process) so `VALMOD_FAULT` works without any in-process arming.
fn ensure_env_installed() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        if let Some(plan) = env_plan().clone() {
            *lock_env() = Some(PlanState { plan, seen: 0 });
            ENV_ARMED.store(true, Ordering::SeqCst);
        }
    });
}

/// What the active plan decided for one operation at `site`.
enum Decision {
    Pass,
    Fail(io::ErrorKind),
    Clip(usize),
}

fn decide(site: &str) -> Decision {
    ensure_env_installed();
    // Relaxed suffices: a thread only consults its own local plan, and
    // its own `arm` increment precedes these loads in program order.
    if GUARDS.load(Ordering::Relaxed) == 0 && !ENV_ARMED.load(Ordering::Relaxed) {
        return Decision::Pass;
    }
    let local = LOCAL.with_borrow_mut(|local| local.as_mut().map(|s| s.step(site)));
    match local {
        Some(decision) => decision,
        None => lock_env().as_mut().map_or(Decision::Pass, |s| s.step(site)),
    }
}

impl PlanState {
    /// Counts one operation at `site` against the plan and decides it.
    fn step(&mut self, site: &str) -> Decision {
        if let Some(prefix) = &self.plan.site {
            if !site.starts_with(prefix.as_str()) {
                return Decision::Pass;
            }
        }
        let index = self.seen;
        self.seen += 1;
        let fired = index >= self.plan.after && index - self.plan.after < self.plan.times;
        if !fired {
            return Decision::Pass;
        }
        match self.plan.kind {
            FaultKind::Err(kind) => Decision::Fail(kind),
            // Only the first triggered operation is torn; everything
            // later is dead (the crash that followed the torn write).
            FaultKind::ShortWrite(n) if index == self.plan.after => Decision::Clip(n),
            FaultKind::ShortWrite(_) => Decision::Fail(io::ErrorKind::Other),
        }
    }
}

/// One instrumented non-write operation (open, sync, rename, read, …).
///
/// # Errors
///
/// The planned injected error when this operation is the planned one.
pub fn check(site: &str) -> io::Result<()> {
    match decide(site) {
        Decision::Pass => Ok(()),
        Decision::Fail(kind) => Err(injected(kind, site)),
        Decision::Clip(_) => Err(injected(io::ErrorKind::WriteZero, site)),
    }
}

/// One instrumented write: passes `buf` through unless the plan tears or
/// fails it. A torn write really puts the byte prefix in `w` before
/// erroring — the on-disk state a power cut mid-write leaves behind.
///
/// # Errors
///
/// `w`'s own error, or the planned injected error.
pub fn write_all(w: &mut impl io::Write, site: &str, buf: &[u8]) -> io::Result<()> {
    match decide(site) {
        Decision::Pass => w.write_all(buf),
        Decision::Fail(kind) => Err(injected(kind, site)),
        Decision::Clip(n) => {
            w.write_all(&buf[..n.min(buf.len())])?;
            Err(injected(io::ErrorKind::WriteZero, site))
        }
    }
}

fn injected(kind: io::ErrorKind, site: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault at {site}"))
}

/// A reader whose every `read` consults the failpoint switchboard first —
/// wraps live input sources so transient/persistent read errors can be
/// injected into a running session.
#[derive(Debug)]
pub struct ChaosRead<R> {
    site: &'static str,
    inner: R,
}

impl<R> ChaosRead<R> {
    /// Wraps `inner`, reporting operations under `site`.
    pub fn new(site: &'static str, inner: R) -> Self {
        Self { site, inner }
    }
}

impl<R: io::Read> io::Read for ChaosRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        check(self.site)?;
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn unarmed_sites_pass() {
        assert!(check("ckpt.write").is_ok());
        let mut out = Vec::new();
        write_all(&mut out, "ckpt.write", b"abc").unwrap();
        assert_eq!(out, b"abc");
    }

    #[test]
    fn nth_matching_operation_fails_and_counting_observes() {
        let g = arm(FaultPlan {
            site: Some("ckpt".into()),
            after: 1,
            times: 1,
            kind: FaultKind::Err(io::ErrorKind::Other),
        });
        assert!(check("journal.sync").is_ok(), "non-matching site is never counted");
        assert!(check("ckpt.sync").is_ok()); // op 0
        assert!(check("ckpt.rename").is_err()); // op 1: planned
        assert!(check("ckpt.sync").is_ok()); // op 2: window passed
        assert_eq!(g.hits(), 3);
    }

    #[test]
    fn crash_plans_kill_everything_after_the_trigger() {
        let _g = arm(FaultPlan::crash_at(None, 2));
        let mut out = Vec::new();
        assert!(write_all(&mut out, "a", b"x").is_ok());
        assert!(check("b").is_ok());
        assert!(check("c").is_err());
        assert!(write_all(&mut out, "d", b"y").is_err());
        assert_eq!(out, b"x", "nothing lands after the crash point");
    }

    #[test]
    fn short_writes_tear_the_buffer_then_die() {
        let _g = arm(FaultPlan {
            site: None,
            after: 0,
            times: u64::MAX,
            kind: FaultKind::ShortWrite(2),
        });
        let mut out = Vec::new();
        let err = write_all(&mut out, "w", b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(out, b"he", "exactly the torn prefix landed");
        assert!(write_all(&mut out, "w", b"more").is_err());
        assert_eq!(out, b"he");
    }

    #[test]
    fn observe_counts_without_firing() {
        let g = arm(FaultPlan::observe(Some("journal")));
        for _ in 0..5 {
            assert!(check("journal.write").is_ok());
        }
        assert!(check("ckpt.write").is_ok());
        assert_eq!(g.hits(), 5);
    }

    #[test]
    fn plans_are_scoped_to_the_arming_thread() {
        let g = arm(FaultPlan::crash_at(None, 0));
        let other = std::thread::spawn(|| {
            let mut out = Vec::new();
            write_all(&mut out, "ckpt.write", b"abc").map(|()| out)
        });
        assert_eq!(other.join().unwrap().unwrap(), b"abc", "another thread is never faulted");
        assert!(check("ckpt.sync").is_err(), "the arming thread is");
        assert_eq!(g.hits(), 1, "the other thread's operation was not counted");
        drop(g);
        assert!(check("ckpt.sync").is_ok(), "dropping the guard disarms the thread");
    }

    #[test]
    fn nested_guards_restore_the_outer_plan() {
        let outer = arm(FaultPlan::observe(Some("journal")));
        assert!(check("journal.write").is_ok());
        {
            let _inner = arm(FaultPlan::crash_at(None, 0));
            assert!(check("journal.write").is_err());
        }
        assert!(check("journal.write").is_ok());
        assert_eq!(outer.hits(), 2, "the outer count resumes where it stopped");
    }

    #[test]
    fn chaos_reader_injects_then_recovers() {
        let data = b"12\n34\n";
        let mut r = ChaosRead::new("stream.read", &data[..]);
        {
            let _g = arm(FaultPlan {
                site: Some("stream.read".into()),
                after: 0,
                times: 2,
                kind: FaultKind::Err(io::ErrorKind::WouldBlock),
            });
            let mut buf = [0u8; 3];
            assert_eq!(r.read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
            assert_eq!(r.read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
            assert_eq!(r.read(&mut buf).unwrap(), 3);
        }
        let mut rest = String::new();
        r.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "34\n");
    }
}
