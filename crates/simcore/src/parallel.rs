//! Parallel conservative-synchronization executor for federated runs.
//!
//! The sequential federated pump ([`crate::run_simulation`] over a
//! [`Federation`]) interleaves every site's events in one calendar. But
//! the federation's inter-site network latency is a textbook
//! conservative-PDES *lookahead* (Chandy–Misra–Bryant): the front-end
//! router cannot affect a site sooner than the router→site hop, and a
//! site cannot affect anything outside itself at all — completions only
//! become visible to the router as telemetry. So per-site event loops
//! can run concurrently between *lookahead barriers* with zero
//! speculation and no rollback.
//!
//! # Execution model
//!
//! Simulated time is cut into windows `[T, H)` with
//! `H = min(T_eff + L, next fault, hard_end)` where `L` is the minimum
//! site latency (the global lookahead) and `T_eff` skips ahead over idle
//! gaps to the earliest pending event. Each window runs three strictly
//! ordered phases:
//!
//! 1. **Front-end phase** (main thread): arrivals and due deliveries in
//!    `[T, H)` are processed from the front-end calendar. Routing
//!    decisions happen here, through the same front-end core the
//!    sequential federation uses, and each routed request is
//!    scheduled as a delivery at `t + latency`. A delivery whose
//!    destination went dark bounces into migration, also here. Because
//!    `latency ≥ L`, a delivery created in this window always lands in
//!    a later window, so the per-site inboxes only ever hold
//!    current-window messages.
//! 2. **Worker phase**: the sites are dealt into `parallel_sites`
//!    shares. The main thread pumps share 0 itself and
//!    `parallel_sites − 1` spawned workers pump the rest (one thread
//!    runs everything, spawning none), draining each site's inbox and
//!    local event queue through `[T, H)` and running the site's
//!    scheduler exactly as the sequential run would. Sites are fully
//!    independent inside a window; outcomes (completions, timeouts,
//!    losses, reruns) are appended to a per-site log. One lock-free
//!    gate per window releases the workers (the main thread publishes
//!    the horizon and bumps an epoch) and collects them (the last
//!    worker to finish wakes the main thread). Waiters spin briefly
//!    before parking, but only while every executor thread in the
//!    process fits the host's cores — spinning on an oversubscribed
//!    core starves the thread it waits for. A site with nothing before
//!    `H` is not touched at all: each shard's next-work time lives in a
//!    lock-free word beside it, written back by the pump and lowered by
//!    every message the main thread posts, so the horizon needs no scan
//!    and the pump skips idle shards. The main thread's messages to a
//!    share and the share's outcome logs travel through one mailbox per
//!    share, so outside the worker phase the main thread does not touch
//!    the shards another thread pumps.
//! 3. **Merge phase** (main thread): the per-site logs are merged in
//!    deterministic `(time, site, log-index)` order and folded into the
//!    cross-site aggregate statistics and the router telemetry — the
//!    same fold order regardless of how many worker threads ran, which
//!    is what makes the report byte-identical for every
//!    `parallel_sites` value.
//!
//! Site-level faults ([`Fault`]) are window split points: the fault
//! schedule is materialized up front
//! ([`ChaosConfig::build_schedule`]), each fault instant terminates a
//! window, and the fault is applied by the main thread at the barrier:
//! the shared front end flips its state exactly as under the sequential
//! [`ChaosTarget`](crate::chaos::ChaosTarget) implementation, and the
//! shard gets the site-side half (crash orphan migration,
//! rebuild-on-recovery, partition and burst messages).
//!
//! # What this executor owns
//!
//! Routing-side state and decisions belong to the front-end core shared
//! with [`Federation`] (see [`crate::federation`]), which reads each
//! site's census through one lock on its barrier-parked shard per
//! refresh. Each shard embeds the site's ledger
//! (`SiteLedger`, also shared with [`Federation`]): live requests,
//! held completions, arrival windows, per-function statistics and
//! chaos crash count. The shard adds what only this executor needs: the
//! site's own calendar, its current-window inbox, its view of the
//! partition flag, the outcome log the merge replays, and per-site
//! service-time streams. This module keeps the shards and their
//! site-local [`PolicyCtx`], the worker pump, mailboxes and window
//! gate, the window loop, the merge, and merge-order hedge arbitration:
//! the first terminal outcome of any copy to merge wins, and later
//! copies count as cancelled or wasted work. The merge folds outcomes
//! into the cross-site aggregate through the same
//! [`FnStats`] methods the engine uses.
//!
//! # Determinism contract
//!
//! For a fixed seed the executor is **byte-identical across every
//! `parallel_sites` value** (1, 2, 8, … — workers only touch their own
//! shards and the merge order is thread-independent). It is *not* in
//! general byte-identical to the sequential federation, for three
//! documented reasons:
//!
//! * service-time draws use per-site streams
//!   (`"{prefix}s{site}:service:{fn}"`) instead of the sequential run's
//!   site-shared streams — unavoidable once sites draw concurrently;
//! * router *telemetry* (per-site finished counts, warm census, μ̂ from
//!   completions) is refreshed at barriers, so load-driven routers see
//!   site state up to one lookahead window (≤ `L`) stale;
//! * cross-site events at the *exact same* timestamp merge in
//!   `(time, site)` order rather than global scheduling order — a
//!   measure-zero tie under continuous arrival/service distributions.
//!
//! Under a telemetry-free router (round-robin) and a deterministic
//! service-time policy, none of the three applies and the parallel
//! report equals the sequential report exactly — the differential
//! oracle pinned by `tests/parallel_federation.rs`.
//!
//! Zero-latency sites would degenerate the lookahead to nothing, so the
//! executor requires every site latency to be positive; launchers fall
//! back to the sequential path (with a warning) otherwise.

use crate::arrivals::ArrivalProcess;
use crate::chaos::{ChaosConfig, ContainerChaos, Fault};
use crate::engine::{
    Completion, EngineConfig, EngineOutcome, FnStats, FunctionEntry, PolicyCtx, ReqId,
};
use crate::events::EventQueue;
use crate::federation::{FederatedReport, Federation, SiteLedger, SiteRebuild};
use crate::frontend::{FrontEnd, HedgeAction, SiteAccess, SiteEffect};
use crate::rng::SimRng;
use crate::telemetry::TelemetrySnapshot;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::Thread;

/// A time-stamped inter-shard message: what the front-end hands a site
/// for one window. Deliveries are the routed (or migrated) requests
/// completing their network hop; the control variants forward
/// fault-driven state flips that the sequential federation applies
/// through the site's scoped context.
enum Msg {
    /// A routed request reaches the site.
    Deliver {
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
    },
    /// The router↔site link was cut: hold responses from now on.
    PartitionStart,
    /// The link healed: release everything held back.
    PartitionEnd,
    /// A chaos burst crashes up to `count` containers.
    Burst { count: u32 },
    /// A reconciler directive (desired server count) completes its
    /// return hop and lands on the site's scheduler.
    Directive { desired: u32 },
    /// A hedge-race loser cancellation lands: release the clone's books
    /// if the site still holds it (idempotent — the clone may already
    /// have finished locally, in which case the merge phase reclassified
    /// that finish as wasted work).
    Cancel { rid: u64 },
}

/// One request outcome recorded by a shard, replayed by the merge phase
/// into the cross-site aggregate in deterministic order.
enum LogKind {
    Completed {
        rid: u64,
        c: Completion,
    },
    Timeout {
        rid: u64,
        fn_idx: u32,
    },
    Lost {
        rid: u64,
        fn_idx: u32,
    },
    Rerun {
        fn_idx: u32,
    },
    /// A hedge-loser clone released by a [`Msg::Cancel`] before it
    /// finished locally.
    Cancelled {
        rid: u64,
        fn_idx: u32,
    },
}

struct LogEntry {
    t: SimTime,
    kind: LogKind,
}

/// The shard-private half of one site: everything a worker thread may
/// touch during its window.
struct ShardState<E> {
    site: u32,
    /// The site's ledger, the type the sequential executor keeps too:
    /// live requests with their arrival instants (the shard's request
    /// table), held completions, arrival windows and per-function
    /// statistics.
    ledger: SiteLedger<SimTime>,
    /// The site scheduler's own event calendar.
    queue: EventQueue<E>,
    /// Current-window messages from the front-end, time-sorted.
    inbox: VecDeque<(SimTime, Msg)>,
    /// Whether the router↔site link is currently cut (shard's view).
    partitioned: bool,
    /// Outcomes recorded this window, drained by the merge phase.
    log: Vec<LogEntry>,
    /// Lazily created per-site service streams, labelled
    /// `"{prefix}s{site}:service:{fn}"`.
    service_rngs: HashMap<u32, SimRng>,
    seed: u64,
    prefix: String,
    /// Nominal end of the run.
    end: SimTime,
    fn_count: usize,
}

/// One site: its scheduler instance plus the shard state, split so the
/// scheduler can borrow a [`PolicyCtx`] over the state.
struct Shard<P: ContainerChaos> {
    policy: P,
    st: ShardState<P::Event>,
}

/// The site-local [`PolicyCtx`]: the parallel analogue of the
/// federation's scoped `SiteCtx`, backed by shard-private state instead
/// of the shared engine.
struct LocalCtx<'a, E> {
    st: &'a mut ShardState<E>,
    /// The current event's timestamp — stamps outcome log entries so
    /// the merge phase orders them correctly (the local calendar's
    /// clock lags while inbox messages are being processed).
    now: SimTime,
    /// Shift applied to scheduled times — non-zero only while replaying
    /// a rebuilt policy's `on_start` after a crash recovery.
    offset: SimDuration,
}

impl<E> ShardState<E> {
    /// The shared completion path: time the request, count it in the
    /// site's ledger, and log the outcome for the merge phase (which
    /// replays the front end's half).
    fn complete_now(&mut self, rid: u64, started: SimTime, now: SimTime) -> Option<Completion> {
        let (fn_idx, arrival) = self.ledger.finish(rid)?;
        let c = Completion::record(self.ledger.stats(fn_idx), fn_idx, arrival, started, now);
        self.log_at(now, LogKind::Completed { rid, c });
        Some(c)
    }

    /// Log an outcome at `t` for the merge phase.
    fn log_at(&mut self, t: SimTime, kind: LogKind) {
        self.log.push(LogEntry { t, kind });
    }
}

impl<E> PolicyCtx<E> for LocalCtx<'_, E> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        self.st.queue.schedule(at + self.offset, ev);
    }

    fn end_time(&self) -> SimTime {
        self.st.end
    }

    fn fn_count(&self) -> usize {
        self.st.fn_count
    }

    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        let (seed, site, prefix) = (self.st.seed, self.st.site, &self.st.prefix);
        self.st.service_rngs.entry(fn_idx).or_insert_with(|| {
            SimRng::from_seed_label(seed, &format!("{prefix}s{site}:service:{fn_idx}"))
        })
    }

    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        self.st.ledger.get(rid.0)
    }

    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        if self.st.partitioned {
            // The response cannot cross the cut link: hold it until the
            // partition heals, exactly like the sequential SiteCtx.
            self.st.ledger.stall(rid.0, started);
            return None;
        }
        self.st.complete_now(rid.0, started, now)
    }

    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.st.ledger.finish(rid.0)?;
        self.st.ledger.stats(fn_idx).record_timeout();
        self.st
            .log_at(self.now, LogKind::Timeout { rid: rid.0, fn_idx });
        Some(fn_idx)
    }

    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.st.ledger.finish(rid.0)?;
        self.st.ledger.stats(fn_idx).record_loss();
        self.st
            .log_at(self.now, LogKind::Lost { rid: rid.0, fn_idx });
        Some(fn_idx)
    }

    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        let (fn_idx, _) = self.st.ledger.get(rid.0)?;
        self.st.ledger.stats(fn_idx).record_rerun();
        self.st.log_at(self.now, LogKind::Rerun { fn_idx });
        Some(fn_idx)
    }

    fn take_window_counts(&mut self) -> Vec<u64> {
        self.st.ledger.take_window_counts()
    }

    fn outstanding(&self) -> usize {
        self.st.ledger.in_flight()
    }
}

/// Advance one shard through `[its current time, horizon)`: drain the
/// window's inbox merged with the local calendar in time order (inbox
/// first on ties — front-end messages were scheduled before the site's
/// own run-time events in the sequential calendar). Returns the time of
/// the shard's next work, if any.
fn pump_shard<P: ContainerChaos>(shard: &mut Shard<P>, horizon: SimTime) -> Option<SimTime> {
    loop {
        let next_inbox = shard.st.inbox.front().map(|&(t, _)| t);
        let next_local = shard.st.queue.peek_time();
        let take_inbox = match (next_inbox, next_local) {
            (Some(ti), Some(tl)) => ti <= tl,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_inbox {
            let t = next_inbox.expect("checked");
            if t >= horizon {
                return Some(t);
            }
            let (_, msg) = shard.st.inbox.pop_front().expect("checked");
            let Shard { policy, st } = shard;
            let mut ctx = LocalCtx {
                st,
                now: t,
                offset: SimDuration::ZERO,
            };
            match msg {
                Msg::Deliver {
                    rid,
                    fn_idx,
                    arrival,
                } => {
                    ctx.st.ledger.admit(rid, fn_idx, arrival);
                    policy.on_arrival(&mut ctx, ReqId(rid), fn_idx, t);
                }
                Msg::PartitionStart => {
                    ctx.st.partitioned = true;
                }
                Msg::PartitionEnd => {
                    ctx.st.partitioned = false;
                    // Release the responses the cut link held back; the
                    // stall lands in their response time.
                    for (rid, started) in ctx.st.ledger.release_stalled() {
                        ctx.st.complete_now(rid, started, t);
                    }
                }
                Msg::Burst { count } => {
                    let crashed = policy.crash_containers(&mut ctx, count, t);
                    ctx.st.ledger.chaos_crashes += crashed;
                }
                Msg::Directive { desired } => {
                    policy.apply_desired_fleet(&mut ctx, desired, t);
                }
                Msg::Cancel { rid } => {
                    // The site policy is not told: its own completion
                    // event for the clone later finds the request gone
                    // and degrades to a no-op, exactly like the
                    // sequential cancel path.
                    if let Some(fn_idx) = ctx.st.ledger.release_clone(rid) {
                        ctx.st.log_at(t, LogKind::Cancelled { rid, fn_idx });
                    }
                }
            }
        } else {
            let tl = next_local.expect("checked");
            if tl >= horizon {
                return Some(tl);
            }
            let (t, ev) = shard.st.queue.pop().expect("checked");
            let Shard { policy, st } = shard;
            policy.on_event(
                &mut LocalCtx {
                    st,
                    now: t,
                    offset: SimDuration::ZERO,
                },
                ev,
                t,
            );
        }
    }
}

/// Front-end calendar events: the arrival pump plus in-flight network
/// hops. Faults are *not* calendar events here — every fault instant is
/// a window barrier handled by the main thread.
enum FeEv {
    Arrival(u32),
    DeliveryDue {
        site: u32,
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
    },
    /// A site's node agent publishes its telemetry snapshot
    /// (self-re-arming; only scheduled when telemetry is enabled). The
    /// snapshot is assembled in the front-end phase from the
    /// barrier-stale shard census plus the front-end-owned predictor —
    /// deterministic for every thread count, since every shard is
    /// parked at the window start when the front-end phase runs.
    Publish {
        site: u32,
    },
    /// A published snapshot completes its hop to the router's view.
    SnapshotDue {
        site: u32,
        snap: TelemetrySnapshot,
    },
    /// A reconciler directive completes its return hop; forwarded into
    /// the site's inbox as a current-window [`Msg::Directive`].
    DirectiveDue {
        site: u32,
        desired: u32,
    },
    /// A deferred hedge trigger comes due: dispatch the clones unless
    /// the race already resolved (the resolution cancelled this event,
    /// so a surviving fire is always live — the guard is belt and
    /// braces).
    HedgeFire {
        rid: u64,
        fn_idx: u32,
    },
    /// A loser-cancellation message completes its hop to the site;
    /// forwarded into the site's inbox as a current-window
    /// [`Msg::Cancel`]. Pushed regardless of partitions — cancels are
    /// idempotent control traffic, mirroring the sequential
    /// `CancelDeliver`.
    CancelDue {
        site: u32,
        rid: u64,
    },
}

/// Front-end bookkeeping for one hedged logical request.
struct FeHedge {
    /// Original arrival instant (clones inherit it so their shard-side
    /// wait/response include the time since the logical arrival, as in
    /// the sequential engine's shared request record).
    arrival: SimTime,
    /// Sites currently holding (or about to receive) a copy;
    /// `copies[0]` is the primary.
    copies: Vec<u32>,
    /// Cancellable calendar token of a pending deferred fire.
    fire_token: Option<u64>,
    /// Whether the first response already won the race.
    resolved: bool,
    /// Losers still owing a terminal event (cancel landing,
    /// dead-on-arrival delivery, or wasted completion); the group is
    /// dropped when this reaches zero.
    pending_losers: usize,
    /// Sites whose copy was abandoned *before* resolution (speculative
    /// retry): their terminal log entry is always wasted work, never
    /// the winner.
    lost: Vec<u32>,
}

/// The shards, each behind its own (uncontended) lock, plus one
/// lock-free word per shard that lets the main thread and the workers
/// agree on which shards have work without touching the idle ones.
struct Shards<P: ContainerChaos> {
    cells: Vec<Mutex<Shard<P>>>,
    /// Per shard, in ns (`u64::MAX` for never): between windows, the
    /// time of its next local event; once a window is armed, lowered to
    /// its earliest message posted since its last pump. A shard is
    /// pumped in a window iff this is before the horizon, and the pump
    /// stores the shard's next work time back. Accesses are `Relaxed`:
    /// the window gate orders them (see [`WindowGate`]).
    due: Vec<AtomicU64>,
    /// One mailbox per share (site `i` belongs to share `i % threads`).
    boxes: Vec<Mutex<ShareBox>>,
}

/// What crosses between the main thread and one share in a window, so
/// the main thread never touches a share's shards in the front-end or
/// merge phase: the messages it posts, and the outcomes the share's
/// pump logged.
#[derive(Default)]
struct ShareBox {
    /// `(site, t, msg)` in posting order, moved into the sites' inboxes
    /// when the share is pumped.
    outbox: Vec<(usize, SimTime, Msg)>,
    /// `(site, entry)` logged by the share's sites this window.
    log: Vec<(u32, LogEntry)>,
}

impl<P: ContainerChaos> Shards<P> {
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<P>> {
        self.cells[i].lock().expect("shard lock")
    }

    fn share_box(&self, share: usize) -> MutexGuard<'_, ShareBox> {
        self.boxes[share].lock().expect("share box lock")
    }

    /// Re-read shard `i`'s next local event after the main thread
    /// changed its calendar.
    fn refresh_due(&self, i: usize) {
        let next = self.lock(i).st.queue.peek_time();
        self.due[i].store(ns_or_never(next), Ordering::Relaxed);
    }
}

/// `t` in ns, or `u64::MAX` for `None`.
fn ns_or_never(t: Option<SimTime>) -> u64 {
    t.map_or(u64::MAX, |t| t.0)
}

/// The census of barrier-parked shards: one uncontended lock per call
/// (phases never overlap, so the site's state is as of the last
/// barrier — at most one lookahead window stale, and identical for
/// every thread count).
impl<P: ContainerChaos> SiteAccess for Shards<P> {
    type Policy = P;

    fn with_site<R>(&self, i: usize, f: impl FnOnce(&P) -> R) -> R {
        f(&self.lock(i).policy)
    }
}

/// Everything the main thread owns between worker phases.
struct Coordinator<P: ContainerChaos> {
    calendar: EventQueue<FeEv>,
    /// The router-facing half, shared with the sequential federation.
    front: FrontEnd,
    rebuild: Option<SiteRebuild<P>>,
    /// Per-function arrival machinery — identical streams and call
    /// sequence to the sequential engine, so the arrival timeline (and
    /// request-id assignment) matches the sequential run exactly.
    procs: Vec<(Box<dyn ArrivalProcess + Send>, SimRng)>,
    /// Cross-site aggregate statistics (the engine's own measurement in
    /// the sequential run).
    agg: Vec<FnStats>,
    next_rid: u64,
    end: SimTime,
    /// Live hedge groups by logical request id.
    hedges: BTreeMap<u64, FeHedge>,
    /// Per site, the earliest message posted (or fault applied) since
    /// its last pump, folded into [`Shards::due`] when a window is armed.
    posted: Vec<SimTime>,
}

impl<P: ContainerChaos> Coordinator<P> {
    /// Hand `msg` to site `site`'s inbox (through its share's
    /// mailbox), due at `t`.
    fn post(&mut self, shards: &Shards<P>, site: usize, t: SimTime, msg: Msg) {
        let share = site % shards.boxes.len();
        shards.share_box(share).outbox.push((site, t, msg));
        self.posted[site] = self.posted[site].min(t);
    }

    /// The earliest pending event anywhere: the front-end calendar or a
    /// site's local calendar.
    fn earliest_pending(&mut self, shards: &Shards<P>) -> Option<SimTime> {
        let local = shards.due.iter().map(|d| d.load(Ordering::Relaxed));
        let t = local.fold(ns_or_never(self.calendar.peek_time()), u64::min);
        (t != u64::MAX).then_some(SimTime(t))
    }

    /// Fold the messages posted (and faults applied) since the last
    /// pump into [`Shards::due`], arming their sites for the window.
    fn arm(&mut self, shards: &Shards<P>) {
        for (due, posted) in shards.due.iter().zip(&mut self.posted) {
            if posted.0 < due.load(Ordering::Relaxed) {
                due.store(posted.0, Ordering::Relaxed);
            }
            *posted = SimTime(u64::MAX);
        }
    }

    fn schedule_next_arrival(&mut self, fn_idx: u32, now: SimTime) {
        let (process, rng) = &mut self.procs[fn_idx as usize];
        if let Some(t) = process.next_after(now, rng) {
            self.calendar.schedule(t, FeEv::Arrival(fn_idx));
        }
    }

    /// Dispatch hedge clones for `rid` to the front end's clone targets.
    /// Assumes the router's view was refreshed for this decision. A
    /// group that ends with a single copy and no pending deferred fire
    /// dissolves.
    fn dispatch_clones(&mut self, rid: u64, fn_idx: u32, now: SimTime) {
        let Some(hcfg) = self.front.hedge else { return };
        for _ in 0..hcfg.max_clones {
            let Some(c) = self.front.clone_target(&self.hedges[&rid].copies) else {
                break;
            };
            let group = self.hedges.get_mut(&rid).expect("group inserted by caller");
            group.copies.push(c as u32);
            let arrival = group.arrival;
            self.front.note_routed(c, now);
            self.agg[fn_idx as usize].hedged += 1;
            // Latencies are validated positive: the clone always
            // crosses the calendar, landing in a later window.
            let latency = self.front.sites[c].meta.latency;
            self.calendar.schedule(
                now + latency,
                FeEv::DeliveryDue {
                    site: c as u32,
                    rid,
                    fn_idx,
                    arrival,
                },
            );
        }
        if self
            .hedges
            .get(&rid)
            .is_some_and(|g| g.copies.len() == 1 && g.fire_token.is_none())
        {
            self.hedges.remove(&rid);
        }
    }

    /// Settle one loser's debt on a resolved group; drop the group once
    /// every loser has settled.
    fn settle_loser(&mut self, rid: u64) {
        if let Some(g) = self.hedges.get_mut(&rid) {
            g.pending_losers = g.pending_losers.saturating_sub(1);
            if g.pending_losers == 0 {
                self.hedges.remove(&rid);
            }
        }
    }

    /// Settle the debt of `rid`'s copy abandoned at `site` (a retry's
    /// original), if there is one; `true` when there was.
    fn settle_abandoned(&mut self, rid: u64, site: u32) -> bool {
        let Some(g) = self.hedges.get_mut(&rid) else {
            return false;
        };
        let Some(p) = g.lost.iter().position(|&s| s == site) else {
            return false;
        };
        g.lost.remove(p);
        g.pending_losers = g.pending_losers.saturating_sub(1);
        if g.resolved && g.pending_losers == 0 {
            self.hedges.remove(&rid);
        }
        true
    }

    /// Move a request committed to site `from` onto a surviving site, or
    /// fail it when none is left. `delivered` says whether the request
    /// had already reached the site (crash orphan, shard-side accounting
    /// already released) or was still in transit (bounced delivery).
    fn migrate(
        &mut self,
        shards: &Shards<P>,
        from: usize,
        rid: u64,
        fn_idx: u32,
        arrival: SimTime,
        now: SimTime,
        delivered: bool,
    ) {
        self.front.sites[from].finished += 1;
        // A copy this front end already abandoned (retry) dies with its
        // site instead of migrating — its pending cancel finds nothing
        // and the loser debt settles here. So does a hedge clone with a
        // surviving sibling, or whose request already won: an orphaned
        // clone must never resurrect an answered request, and a sibling
        // copy is already racing elsewhere.
        let dies = self.settle_abandoned(rid, from as u32)
            || match self.hedges.get_mut(&rid) {
                Some(g) if g.copies.len() > 1 || g.resolved => {
                    g.copies.retain(|&s| s != from as u32);
                    if g.resolved {
                        self.settle_loser(rid);
                    }
                    true
                }
                _ => false,
            };
        if dies {
            self.agg[fn_idx as usize].cancelled += 1;
            if delivered {
                shards.lock(from).st.ledger.stats(fn_idx).cancelled += 1;
            }
            return;
        }
        let Some((dest, hop)) = self.front.reroute(shards, from, fn_idx, now) else {
            // Nowhere to go: the request is failed (engine-level lost).
            if delivered {
                shards.lock(from).st.ledger.stats(fn_idx).record_loss();
            }
            self.agg[fn_idx as usize].record_loss();
            // The last copy of a hedged request failing retires its
            // (loser-free) group.
            if let Some(g) = self.hedges.remove(&rid) {
                if let Some(token) = g.fire_token {
                    self.calendar.cancel(token);
                }
            }
            return;
        };
        if delivered {
            // The orphan lost its server; the aggregate rerun counter is
            // the cross-site view of that.
            self.agg[fn_idx as usize].record_rerun();
        }
        if let Some(g) = self.hedges.get_mut(&rid) {
            // The surviving last copy moves: keep the group's site map
            // honest so a later resolution cancels the right place.
            if let Some(p) = g.copies.iter_mut().find(|s| **s == from as u32) {
                *p = dest as u32;
            }
        }
        // Latencies are validated positive, so the hop is never zero and
        // the re-delivery always goes through the calendar.
        self.calendar.schedule(
            now + hop,
            FeEv::DeliveryDue {
                site: dest as u32,
                rid,
                fn_idx,
                arrival,
            },
        );
    }

    /// Apply one fault at a window barrier: the front end flips its
    /// state, the shard gets the site-side half and is pumped in the
    /// coming window.
    fn apply_fault(&mut self, shards: &Shards<P>, fault: Fault, now: SimTime) {
        let i = fault.site() as usize;
        let Some(effect) = self.front.apply_fault(fault, now, self.end) else {
            return;
        };
        self.apply_effect(shards, i, effect, now);
        shards.refresh_due(i);
        self.posted[i] = self.posted[i].min(now);
    }

    fn apply_effect(&mut self, shards: &Shards<P>, i: usize, effect: SiteEffect, now: SimTime) {
        let mut shard = shards.lock(i);
        match effect {
            SiteEffect::Crash => {
                assert!(
                    self.rebuild.is_some(),
                    "site-crash faults require Federation::with_rebuild"
                );
                // Every pending event belongs to the dead incarnation —
                // the shard advanced exactly to the fault instant, so the
                // whole calendar is invalid.
                shard.st.queue.clear();
                let orphans = shard.st.ledger.evacuate();
                drop(shard);
                for (rid, (fn_idx, arrival)) in orphans {
                    self.migrate(shards, i, rid, fn_idx, arrival, now, true);
                }
            }
            SiteEffect::Rebuild(restarts) => {
                let rebuild = self.rebuild.as_mut().expect("checked at SiteDown");
                shard.policy = rebuild(i, restarts);
                shard.st.ledger.restart();
                // Replay the fresh policy's start-up (timer setup,
                // initial provisioning) shifted to the present.
                let Shard { policy, st } = &mut *shard;
                policy.on_start(&mut LocalCtx {
                    st,
                    now,
                    offset: now.saturating_since(SimTime::ZERO),
                });
            }
            SiteEffect::PartitionStart => shard.st.inbox.push_back((now, Msg::PartitionStart)),
            SiteEffect::PartitionEnd => shard.st.inbox.push_back((now, Msg::PartitionEnd)),
            SiteEffect::Slowdown(factor) => shard.policy.set_service_factor(factor),
            SiteEffect::Burst(count) => shard.st.inbox.push_back((now, Msg::Burst { count })),
        }
    }

    /// First-response-wins arbitration, run against every terminal log
    /// entry of a hedged request in merge order. Returns `false` for
    /// the winner (the first terminal entry — fold it normally, after
    /// scheduling loser cancellations at each loser site's latency) and
    /// `true` for every later entry (a loser that finished before its
    /// cancel landed — reclassify as cancelled/wasted). Because the
    /// merge order is `(time, site, log-index)`-stable, the winner is
    /// identical for every thread count.
    fn hedge_arbitrate(&mut self, rid: u64, winner: u32, t: SimTime) -> bool {
        // An abandoned (retry-lost) copy can never win, even if its
        // terminal entry merges first: reclassify as wasted work.
        if self.settle_abandoned(rid, winner) {
            return true;
        }
        let Some(g) = self.hedges.get_mut(&rid) else {
            return false;
        };
        if g.resolved {
            self.settle_loser(rid);
            return true;
        }
        g.resolved = true;
        let token = g.fire_token.take();
        let losers: Vec<u32> = g.copies.iter().copied().filter(|&s| s != winner).collect();
        g.pending_losers += losers.len();
        if g.pending_losers == 0 {
            self.hedges.remove(&rid);
        }
        if let Some(token) = token {
            self.calendar.cancel(token);
        }
        for site in losers {
            let at = t + self.front.sites[site as usize].meta.latency;
            self.calendar.schedule(at, FeEv::CancelDue { site, rid });
        }
        false
    }

    /// Merge the window's per-site outcome logs into the aggregate in
    /// deterministic `(time, site, log-index)` order and feed the
    /// per-site telemetry — thread-count-independent by construction.
    fn merge_window(&mut self, shards: &Shards<P>) {
        let mut merged: Vec<(u32, LogEntry)> = Vec::new();
        for share in 0..shards.boxes.len() {
            merged.append(&mut shards.share_box(share).log);
        }
        // Stable by (time, site): each site's entries keep log order.
        merged.sort_by_key(|&(site, ref e)| (e.t, site));
        let hedging = self.front.hedge.is_some();
        for (site, e) in merged {
            let i = site as usize;
            match e.kind {
                LogKind::Completed { rid, c } => {
                    if hedging && self.hedge_arbitrate(rid, site, e.t) {
                        // A loser finished before its cancel landed:
                        // honest wasted work, not a logical completion.
                        self.front.sites[i].finished += 1;
                        self.front.record_waste(i, c.service);
                        self.agg[c.fn_idx as usize].cancelled += 1;
                        continue;
                    }
                    self.front.record_completion(i, c.service);
                    self.agg[c.fn_idx as usize].record_completion(c.wait, c.service, c.response);
                }
                LogKind::Timeout { rid, fn_idx } | LogKind::Lost { rid, fn_idx } => {
                    self.front.sites[i].finished += 1;
                    if hedging && self.hedge_arbitrate(rid, site, e.t) {
                        self.agg[fn_idx as usize].cancelled += 1;
                        continue;
                    }
                    let f = &mut self.agg[fn_idx as usize];
                    if matches!(e.kind, LogKind::Timeout { .. }) {
                        f.record_timeout();
                    } else {
                        f.record_loss();
                    }
                }
                LogKind::Rerun { fn_idx } => self.agg[fn_idx as usize].record_rerun(),
                LogKind::Cancelled { rid, fn_idx } => {
                    self.front.sites[i].finished += 1;
                    self.agg[fn_idx as usize].cancelled += 1;
                    self.settle_loser(rid);
                }
            }
        }
    }

    /// The front-end phase: process every front-end calendar event
    /// before `horizon`.
    fn run_front_phase(&mut self, shards: &Shards<P>, horizon: SimTime) {
        while self.calendar.peek_time().is_some_and(|t| t < horizon) {
            let (now, ev) = self.calendar.pop().expect("checked");
            match ev {
                FeEv::Arrival(fn_idx) => {
                    let rid = self.next_rid;
                    self.next_rid += 1;
                    self.agg[fn_idx as usize].arrivals += 1;
                    if let Some(chosen) = self.front.route_arrival(shards, fn_idx, now) {
                        let latency = self.front.sites[chosen].meta.latency;
                        self.calendar.schedule(
                            now + latency,
                            FeEv::DeliveryDue {
                                site: chosen as u32,
                                rid,
                                fn_idx,
                                arrival: now,
                            },
                        );
                        if let Some(action) = self.front.arrival_hedge(chosen) {
                            self.hedges.insert(
                                rid,
                                FeHedge {
                                    arrival: now,
                                    copies: vec![chosen as u32],
                                    fire_token: None,
                                    resolved: false,
                                    pending_losers: 0,
                                    lost: Vec::new(),
                                },
                            );
                            match action {
                                // The view is fresh from the routing decision.
                                HedgeAction::Clone => self.dispatch_clones(rid, fn_idx, now),
                                HedgeAction::Arm(delay) => {
                                    let token = self.calendar.schedule_cancellable(
                                        now + delay,
                                        FeEv::HedgeFire { rid, fn_idx },
                                    );
                                    self.hedges.get_mut(&rid).expect("just inserted").fire_token =
                                        Some(token);
                                }
                            }
                        }
                    } else {
                        // Every site is dark: shed at the front door.
                        self.agg[fn_idx as usize].record_loss();
                    }
                    self.schedule_next_arrival(fn_idx, now);
                }
                FeEv::DeliveryDue {
                    site,
                    rid,
                    fn_idx,
                    arrival,
                } => {
                    let i = site as usize;
                    if self.hedges.get(&rid).is_some_and(|g| g.resolved) {
                        // A hedge clone arriving after its sibling
                        // already answered (the race resolved while it
                        // crossed the network): consumed at the door,
                        // never enters the scheduler.
                        self.front.sites[i].finished += 1;
                        self.agg[fn_idx as usize].cancelled += 1;
                        if let Some(g) = self.hedges.get_mut(&rid) {
                            g.copies.retain(|&s| s != site);
                        }
                        self.settle_loser(rid);
                    } else if self.front.sites[i].routable() {
                        self.post(
                            shards,
                            i,
                            now,
                            Msg::Deliver {
                                rid,
                                fn_idx,
                                arrival,
                            },
                        );
                    } else {
                        // The destination went dark while the request
                        // was in flight: bounce and migrate.
                        self.front.note_bounce(i);
                        self.migrate(shards, i, rid, fn_idx, arrival, now, false);
                    }
                }
                FeEv::Publish { site } => {
                    let (next, snap) = self.front.publish(shards, site as usize, now);
                    self.calendar.schedule(next, FeEv::Publish { site });
                    if let Some((at, snap)) = snap {
                        self.calendar.schedule(at, FeEv::SnapshotDue { site, snap });
                    }
                }
                FeEv::SnapshotDue { site, snap } => {
                    if let Some((at, desired)) =
                        self.front.snapshot_arrive(site as usize, snap, now)
                    {
                        self.calendar
                            .schedule(at, FeEv::DirectiveDue { site, desired });
                    }
                }
                FeEv::DirectiveDue { site, desired } => {
                    if self.front.directive_lands(site as usize) {
                        self.post(shards, site as usize, now, Msg::Directive { desired });
                    }
                }
                FeEv::HedgeFire { rid, fn_idx } => {
                    let Some(group) = self.hedges.get_mut(&rid).filter(|g| !g.resolved) else {
                        continue;
                    };
                    group.fire_token = None;
                    let primary = group.copies[0];
                    if !self.front.hedge_within_budget() {
                        // Over the waste budget: no clone, no retry —
                        // the group has nothing to race.
                        self.hedges.remove(&rid);
                        continue;
                    }
                    self.front.refresh_states(shards, fn_idx, now);
                    self.dispatch_clones(rid, fn_idx, now);
                    if self.front.retrying() {
                        // Retry, not hedge: abandon the original once
                        // its replacement exists — a late answer from it
                        // is wasted work, not a win.
                        if let Some(g) = self.hedges.get_mut(&rid) {
                            if g.copies.len() > 1 && g.copies[0] == primary {
                                g.copies.remove(0);
                                g.lost.push(primary);
                                g.pending_losers += 1;
                                let at = now + self.front.sites[primary as usize].meta.latency;
                                self.calendar
                                    .schedule(at, FeEv::CancelDue { site: primary, rid });
                            }
                        }
                    }
                }
                FeEv::CancelDue { site, rid } => {
                    self.post(shards, site as usize, now, Msg::Cancel { rid });
                }
            }
        }
    }
}

/// Pump share `share` (sites `share`, `share + threads`, …) to
/// `horizon`: deliver its mailbox, pump every armed shard, and log their
/// outcomes back to the mailbox. Idle shards are skipped without
/// touching them.
fn pump_share<P: ContainerChaos>(shards: &Shards<P>, share: usize, horizon: SimTime) {
    let threads = shards.boxes.len();
    let mut mailbox = shards.share_box(share);
    let ShareBox { outbox, log } = &mut *mailbox;
    for (site, t, msg) in outbox.drain(..) {
        shards.lock(site).st.inbox.push_back((t, msg));
    }
    let sites = (share..shards.cells.len()).step_by(threads);
    for (i, due) in sites.zip(shards.due.iter().skip(share).step_by(threads)) {
        if due.load(Ordering::Relaxed) < horizon.0 {
            let mut shard = shards.lock(i);
            let next = pump_shard(&mut shard, horizon);
            due.store(ns_or_never(next), Ordering::Relaxed);
            log.extend(shard.st.log.drain(..).map(|e| (i as u32, e)));
        }
    }
}

/// Spin-poll rounds before a gate waiter parks: ≈70 µs on a 2-core
/// Xeon host (≈17 ns a round). A worker's wait spans the main thread's
/// serial merge, horizon and front-end phases, and the main thread's
/// wait spans the slowest share — both tens of µs per window — while a
/// parked thread wakes ≈0.1 ms late on that host.
const SPIN_ROUNDS: u32 = 1 << 12;

/// Executor threads (main threads included) of every parallel run in
/// this process. Waiters spin only while these all fit the host's cores
/// — with more, a spinner may hold the very core the thread it waits for
/// needs (a sweep running parallel cells side by side, or a test
/// harness).
static EXECUTOR_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Counts a run's threads into [`EXECUTOR_THREADS`] while it lives.
struct ThreadsInUse(usize);

impl ThreadsInUse {
    fn new(threads: usize) -> Self {
        EXECUTOR_THREADS.fetch_add(threads, Ordering::Relaxed);
        Self(threads)
    }
}

impl Drop for ThreadsInUse {
    fn drop(&mut self) {
        EXECUTOR_THREADS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// The per-window gate between the main thread and the spawned workers:
/// the main thread publishes the horizon and bumps `epoch`; each worker
/// pumps its share and decrements `remaining`, and the last one wakes the
/// main thread. One release and one collection per window, no locks.
///
/// Ordering: everything the main thread writes before the `Release`
/// bump of `epoch` (the horizon, [`Shards::due`], the mailboxes) is
/// visible to a worker after its `Acquire` load sees the new epoch;
/// everything a worker writes before its `AcqRel` decrement of
/// `remaining` is visible to the main thread after its `Acquire` load
/// reads zero (the decrements form one release sequence).
struct WindowGate {
    /// Windows opened so far; a worker runs each epoch exactly once.
    epoch: AtomicU64,
    /// The open window's horizon in ns, or [`WindowGate::STOP`].
    horizon: AtomicU64,
    /// Workers still pumping the open window.
    remaining: AtomicUsize,
    /// The thread that opens windows and waits for them.
    main: Thread,
    /// Cores available to this process.
    cores: usize,
}

impl WindowGate {
    const STOP: u64 = u64::MAX;

    fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            horizon: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            main: std::thread::current(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Spin briefly (while every executor thread has a core), then park
    /// until `ready` holds. Every state change is followed by an
    /// `unpark` of the waiter, so a park never misses it.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        if EXECUTOR_THREADS.load(Ordering::Relaxed) <= self.cores {
            for _ in 0..SPIN_ROUNDS {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
        }
        while !ready() {
            std::thread::park();
        }
    }

    /// Worker side: wait for the window after `epoch` and return its
    /// horizon, or `None` once the run is over.
    fn next_window(&self, epoch: &mut u64) -> Option<SimTime> {
        self.wait_until(|| self.epoch.load(Ordering::Acquire) != *epoch);
        *epoch += 1;
        let horizon = self.horizon.load(Ordering::Relaxed);
        (horizon != Self::STOP).then_some(SimTime(horizon))
    }
}

/// A worker's "share pumped" signal, sent on drop so a panicking worker
/// still releases the main thread (which then trips over the poisoned
/// mailbox lock and unwinds instead of hanging).
struct WindowDone<'a>(&'a WindowGate);

impl Drop for WindowDone<'_> {
    fn drop(&mut self) {
        if self.0.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.main.unpark();
        }
    }
}

/// The main thread's side of the gate. Dropping it (also on unwind)
/// stops the workers, so the thread scope can always join them.
struct GateLeader<'a> {
    gate: &'a WindowGate,
    workers: Vec<Thread>,
}

impl GateLeader<'_> {
    /// Open the window up to `horizon` ns (or [`WindowGate::STOP`]) for
    /// every worker.
    fn open(&self, horizon: u64) {
        self.gate
            .remaining
            .store(self.workers.len(), Ordering::Relaxed);
        self.gate.horizon.store(horizon, Ordering::Relaxed);
        self.gate.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
    }

    /// Wait until every worker has pumped its share of the open window.
    fn wait_done(&self) {
        self.gate
            .wait_until(|| self.gate.remaining.load(Ordering::Acquire) == 0);
    }
}

impl Drop for GateLeader<'_> {
    fn drop(&mut self) {
        self.open(WindowGate::STOP);
    }
}

/// Run a federated simulation over per-site worker threads with
/// conservative latency-lookahead synchronization. See the module docs
/// for the execution model and determinism contract.
///
/// `federation` must be freshly built (no prior run);
/// `chaos`/`chaos_seed` describe the fault schedule the sequential path
/// would inject through a
/// [`ChaosPolicy`](crate::chaos::ChaosPolicy) wrapper (pass
/// `ChaosConfig::default()` for a fault-free run). The thread count,
/// calling thread included, comes from `cfg.parallel_sites` (clamped to
/// the site count; `None` runs the windowed executor on the calling
/// thread alone, which produces the same bytes as any other thread
/// count).
///
/// # Panics
///
/// Panics if any site latency is zero (the lookahead would be
/// degenerate — callers are expected to validate and fall back to the
/// sequential path) or if the duration is not positive.
pub fn run_federation_parallel<P>(
    cfg: EngineConfig,
    functions: Vec<FunctionEntry>,
    federation: Federation<P>,
    chaos: ChaosConfig,
    chaos_seed: u64,
) -> FederatedReport<P::Report>
where
    P: ContainerChaos + Send,
    P::Event: Send,
{
    assert!(
        cfg.duration_secs > 0.0,
        "simulation needs a positive duration"
    );
    chaos.validate().expect("invalid ChaosConfig");
    let Federation {
        sites,
        ledgers,
        front,
        rebuild,
        ..
    } = federation;
    let n_sites = sites.len();
    let lookahead = front
        .sites
        .iter()
        .map(|s| s.meta.latency)
        .min()
        .expect("federation has at least one site");
    assert!(
        lookahead > SimDuration::ZERO,
        "parallel federated execution requires every site latency > 0 \
         (zero latency degenerates the conservative lookahead); \
         fall back to the sequential path"
    );
    let end = SimTime::from_secs_f64(cfg.duration_secs);
    let hard_end = end + SimDuration::from_secs_f64(cfg.drain_secs);
    let duration_secs = cfg.duration_secs;
    let threads = cfg.parallel_sites.unwrap_or(1).clamp(1, n_sites);

    // The fault timeline, materialized up front in the same order the
    // sequential ChaosPolicy schedules it; a stable sort by time turns
    // scheduling order into firing order.
    let mut faults = chaos.build_schedule(chaos_seed, n_sites, end);
    faults.sort_by_key(|&(t, _)| t);

    // The front end moves to the main thread whole; each site's
    // scheduler and its ledger become a shard.
    let mut cells: Vec<Mutex<Shard<P>>> = sites
        .into_iter()
        .zip(ledgers)
        .enumerate()
        .map(|(i, (policy, ledger))| {
            Mutex::new(Shard {
                policy,
                st: ShardState {
                    site: i as u32,
                    ledger: ledger.with_payload(),
                    queue: EventQueue::new(),
                    inbox: VecDeque::new(),
                    partitioned: false,
                    log: Vec::new(),
                    service_rngs: HashMap::new(),
                    seed: cfg.seed,
                    prefix: cfg.rng_label_prefix.clone(),
                    end,
                    fn_count: functions.len(),
                },
            })
        })
        .collect();

    // Aggregate statistics + arrival machinery, mirroring EngineCtx.
    let mut agg = Vec::with_capacity(functions.len());
    let mut procs = Vec::with_capacity(functions.len());
    for (i, f) in functions.into_iter().enumerate() {
        agg.push(FnStats::new(f.name, f.slo_deadline, cfg.stream_stats));
        procs.push((
            f.process,
            SimRng::from_seed_label(cfg.seed, &format!("{}arrival:{i}", cfg.rng_label_prefix)),
        ));
    }
    let mut fe = Coordinator {
        calendar: EventQueue::new(),
        front,
        rebuild,
        procs,
        agg,
        next_rid: 0,
        end,
        hedges: BTreeMap::new(),
        posted: vec![SimTime(u64::MAX); n_sites],
    };
    for i in 0..fe.procs.len() as u32 {
        fe.schedule_next_arrival(i, SimTime::ZERO);
    }
    if fe.front.telemetry.enabled() {
        for i in 0..n_sites {
            let at = fe.front.telemetry.next_publish(i);
            fe.calendar.schedule(at, FeEv::Publish { site: i as u32 });
        }
    }
    // Site start-up runs on the main thread before the first window.
    for shard in &mut cells {
        let Shard { policy, st } = shard.get_mut().expect("shard lock");
        policy.on_start(&mut LocalCtx {
            st,
            now: SimTime::ZERO,
            offset: SimDuration::ZERO,
        });
    }
    let shards = Shards {
        due: (0..n_sites).map(|_| AtomicU64::new(0)).collect(),
        boxes: (0..threads).map(|_| Mutex::default()).collect(),
        cells,
    };
    for i in 0..n_sites {
        shards.refresh_due(i);
    }

    // Bulk-synchronous window loop. The main thread pumps shard share 0
    // itself; `threads - 1` workers pump the others, released and
    // collected through one gate per window.
    let _in_use = ThreadsInUse::new(threads);
    let gate = WindowGate::new();
    let shards_ref = &shards;
    std::thread::scope(|scope| {
        let workers = (1..threads)
            .map(|w| {
                let gate = &gate;
                scope
                    .spawn(move || {
                        let mut epoch = 0;
                        while let Some(horizon) = gate.next_window(&mut epoch) {
                            let _done = WindowDone(gate);
                            pump_share(shards_ref, w, horizon);
                        }
                    })
                    .thread()
                    .clone()
            })
            .collect();
        // Dropping the leader (also on unwind) releases the workers.
        let leader = GateLeader {
            gate: &gate,
            workers,
        };

        let mut t_window = SimTime::ZERO;
        let mut fi = 0usize;
        loop {
            // Barrier phase: apply every fault due at the window start.
            while fi < faults.len() && faults[fi].0 <= t_window {
                let (t, fault) = faults[fi];
                fi += 1;
                fe.apply_fault(shards_ref, fault, t.max(t_window));
            }
            // Horizon: earliest pending work anywhere, advanced by the
            // lookahead, cut at the next fault and the hard end.
            let pending = fe.earliest_pending(shards_ref);
            let next_fault = faults.get(fi).map(|&(t, _)| t);
            let earliest = match (pending, next_fault) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if earliest > hard_end {
                break;
            }
            let t_eff = t_window.max(earliest);
            let mut horizon = t_eff + lookahead;
            if let Some(ft) = next_fault {
                horizon = horizon.min(ft);
            }
            // Events at exactly the hard end still run (the sequential
            // pump only breaks strictly past it).
            horizon = horizon.min(SimTime(hard_end.0 + 1));

            // Front-end phase: arrivals and due deliveries in [T, H).
            fe.run_front_phase(shards_ref, horizon);

            // Worker phase: arm the shards with work before the horizon,
            // open the gate, pump share 0 here, wait for the rest.
            fe.arm(shards_ref);
            leader.open(horizon.0);
            pump_share(shards_ref, 0, horizon);
            leader.wait_done();

            // Merge phase.
            fe.merge_window(shards_ref);
            t_window = horizon;
        }
    });

    // Assemble the report exactly as the sequential finish() does. What
    // the aggregate never saw complete, time out or get lost is still
    // outstanding (the sequential engine's request table holds it).
    let (arrivals, retired) = fe.agg.iter().fold((0, 0), |(a, r), f| {
        (a + f.arrivals, r + f.completed + f.timeouts + f.lost)
    });
    let outstanding = arrivals.saturating_sub(retired);
    let sites = shards.cells.into_iter().map(|shard| {
        let shard = shard.into_inner().expect("shard lock");
        let (outcome, chaos_crashes) = shard.st.ledger.into_outcome(duration_secs);
        (shard.policy, outcome, chaos_crashes)
    });
    let aggregate = EngineOutcome {
        per_fn: fe.agg,
        outstanding,
        duration_secs,
    };
    fe.front.into_report(sites, aggregate, threads)
}
