//! Outside-in tracing of the program's public seams.
//!
//! Four wrappers time and count every call they forward:
//!
//! * [`Traced`] around a [`SchedulerPolicy`]: once around the
//!   `Federation` (role [`Role::Front`]) and once around each site policy
//!   (role [`Role::Site`], which also forwards the [`ContainerChaos`]
//!   seam);
//! * [`TracedCtx`] around the [`PolicyCtx`] a wrapped policy receives:
//!   the engine context for the front, the federation's scoped per-site
//!   context for a site;
//! * [`TracedRouter`] around the [`RouterPolicy`].
//!
//! Each wrapper keeps its spans in memory and hands them to a shared
//! [`Sink`] when it is dropped at the end of the run. [`fold`] then turns
//! the spans of one thread into self time per layer: a span's self time
//! is its duration minus the durations of the spans nested in it, and the
//! engine's self time is what remains of the run.
//!
//! The site census calls (`warm_containers`, `resource_snapshot`) are
//! counted, not timed: the federation makes `sites × (functions + 2)` of
//! them per routing decision, so timing each would time the clock.

use lass::simcore::{
    Completion, ContainerChaos, EngineOutcome, PolicyCtx, ReqId, ResourceSnapshot, RouterPolicy,
    SchedulerPolicy, SimRng, SimTime, SiteState,
};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    static ON_MAIN: Cell<bool> = const { Cell::new(false) };
}

/// Mark the calling thread as the one that drives the engine; spans from
/// any other thread are worker spans.
pub fn mark_main_thread() {
    ON_MAIN.with(|m| m.set(true));
}

fn on_main() -> bool {
    ON_MAIN.with(Cell::get)
}

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Event pump, calendar pop, arrival sampling, request insert, and
    /// the engine-context calls not listed below.
    Engine,
    /// Calendar pushes and cancels.
    Events,
    /// Request table and per-function statistics.
    Reqtable,
    /// Front end: route-state refresh, dispatch, per-site bookkeeping.
    Federation,
    /// The router's pick.
    Router,
    /// The per-site scheduler.
    Site,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 6] = [
    Layer::Engine,
    Layer::Events,
    Layer::Reqtable,
    Layer::Federation,
    Layer::Router,
    Layer::Site,
];

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Front-end `on_start` / `finish`.
    FrontOther,
    /// Front-end `on_arrival`.
    FrontArrival,
    /// Front-end `on_event`.
    FrontEvent,
    /// `RouterPolicy::route`.
    Route,
    /// Site `on_start`, `finish` and the chaos seam.
    SiteOther,
    /// Site `on_arrival`.
    SiteArrival,
    /// Site `on_event`.
    SiteEvent,
    /// Any call on a site's scoped context.
    SiteCtx,
    /// Engine `schedule` / `schedule_cancellable` / `cancel_scheduled`.
    Schedule,
    /// Engine `complete`.
    Complete,
    /// Engine `request_info`.
    Lookup,
    /// Every other engine-context call.
    CtxOther,
}

/// Number of [`Kind`]s.
pub const KINDS: usize = 12;

impl Kind {
    /// The layer charged with this kind's self time.
    pub fn layer(self) -> Layer {
        match self {
            Kind::FrontOther | Kind::FrontArrival | Kind::FrontEvent | Kind::SiteCtx => {
                Layer::Federation
            }
            Kind::Route => Layer::Router,
            Kind::SiteOther | Kind::SiteArrival | Kind::SiteEvent => Layer::Site,
            Kind::Schedule => Layer::Events,
            Kind::Complete | Kind::Lookup => Layer::Reqtable,
            Kind::CtxOther => Layer::Engine,
        }
    }

    /// Nesting order, outermost first: breaks ties between spans that
    /// share both start and end.
    fn rank(self) -> u8 {
        match self {
            Kind::FrontOther | Kind::FrontArrival | Kind::FrontEvent => 0,
            Kind::Route => 1,
            Kind::SiteOther | Kind::SiteArrival | Kind::SiteEvent => 2,
            Kind::SiteCtx => 3,
            Kind::Schedule | Kind::Complete | Kind::Lookup | Kind::CtxOther => 4,
        }
    }
}

/// One timed call: nanoseconds since the recorder's base instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start of the call.
    pub start: u64,
    /// End of the call.
    pub end: u64,
    /// What was called.
    pub kind: Kind,
    /// Whether the engine's own thread made the call.
    pub main: bool,
}

/// The spans and census count of one wrapper, handed over at drop.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
    /// `warm_containers` + `resource_snapshot` calls forwarded.
    pub observe: u64,
}

/// Where wrappers leave their spans when they are dropped.
pub type Sink = Arc<Mutex<Vec<Recorded>>>;

/// A wrapper's span buffer.
pub struct Recorder {
    base: Instant,
    spans: RefCell<Vec<Span>>,
    observe: Cell<u64>,
    sink: Sink,
}

impl Recorder {
    /// A recorder timing relative to `base`, draining into `sink`.
    pub fn new(base: Instant, sink: &Sink) -> Self {
        Self {
            base,
            spans: RefCell::new(Vec::new()),
            observe: Cell::new(0),
            sink: Arc::clone(sink),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self, kind: Kind) -> usize {
        let start = self.now();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            start,
            end: start,
            kind,
            main: on_main(),
        });
        spans.len() - 1
    }

    fn close(&self, idx: usize) {
        let end = self.now();
        self.spans.borrow_mut()[idx].end = end;
    }

    fn observed(&self) {
        self.observe.set(self.observe.get() + 1);
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let rec = Recorded {
            spans: std::mem::take(self.spans.get_mut()),
            observe: self.observe.get(),
        };
        // A poisoned sink means another wrapper panicked; the run is
        // failing anyway, and a drop must not panic.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(rec);
        }
    }
}

/// Which seam a [`Traced`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The federation the engine drives.
    Front,
    /// One site's scheduler inside the federation.
    Site,
}

/// A [`SchedulerPolicy`] wrapper that times every callback it forwards.
pub struct Traced<P> {
    inner: P,
    rec: Recorder,
    role: Role,
}

impl<P> Traced<P> {
    /// Wrap `inner` in the given role.
    pub fn new(inner: P, role: Role, rec: Recorder) -> Self {
        Self { inner, rec, role }
    }

    fn kinds(&self) -> (Kind, Kind, Kind) {
        match self.role {
            Role::Front => (Kind::FrontArrival, Kind::FrontEvent, Kind::FrontOther),
            Role::Site => (Kind::SiteArrival, Kind::SiteEvent, Kind::SiteOther),
        }
    }
}

/// Time `$call` as a span of `$kind`, with `$ctx` wrapped for the call.
macro_rules! timed_with_ctx {
    ($self:ident, $kind:expr, $ctx:ident, |$c:ident| $call:expr) => {{
        let idx = $self.rec.open($kind);
        let mut $c = TracedCtx {
            inner: $ctx,
            rec: &$self.rec,
            role: $self.role,
        };
        let out = $call;
        $self.rec.close(idx);
        out
    }};
}

impl<P: SchedulerPolicy> SchedulerPolicy for Traced<P> {
    type Event = P::Event;
    type Report = P::Report;

    fn on_start(&mut self, ctx: &mut impl PolicyCtx<P::Event>) {
        let kind = self.kinds().2;
        timed_with_ctx!(self, kind, ctx, |c| self.inner.on_start(&mut c))
    }

    fn on_arrival(
        &mut self,
        ctx: &mut impl PolicyCtx<P::Event>,
        rid: ReqId,
        fn_idx: u32,
        now: SimTime,
    ) {
        let kind = self.kinds().0;
        timed_with_ctx!(self, kind, ctx, |c| self
            .inner
            .on_arrival(&mut c, rid, fn_idx, now))
    }

    fn on_event(&mut self, ctx: &mut impl PolicyCtx<P::Event>, ev: P::Event, now: SimTime) {
        let kind = self.kinds().1;
        timed_with_ctx!(self, kind, ctx, |c| self.inner.on_event(&mut c, ev, now))
    }

    fn finish(self, outcome: EngineOutcome) -> P::Report {
        let kind = self.kinds().2;
        let Self { inner, rec, .. } = self;
        let idx = rec.open(kind);
        let report = inner.finish(outcome);
        rec.close(idx);
        report
    }
}

impl<P: ContainerChaos> ContainerChaos for Traced<P> {
    fn crash_containers(
        &mut self,
        ctx: &mut impl PolicyCtx<P::Event>,
        count: u32,
        now: SimTime,
    ) -> u32 {
        let kind = self.kinds().2;
        timed_with_ctx!(self, kind, ctx, |c| self
            .inner
            .crash_containers(&mut c, count, now))
    }

    fn warm_containers(&self, fn_idx: u32) -> u64 {
        self.rec.observed();
        self.inner.warm_containers(fn_idx)
    }

    fn apply_desired_fleet(
        &mut self,
        ctx: &mut impl PolicyCtx<P::Event>,
        desired: u32,
        now: SimTime,
    ) -> bool {
        let kind = self.kinds().2;
        timed_with_ctx!(self, kind, ctx, |c| self
            .inner
            .apply_desired_fleet(&mut c, desired, now))
    }

    fn set_service_factor(&mut self, factor: f64) {
        let idx = self.rec.open(self.kinds().2);
        self.inner.set_service_factor(factor);
        self.rec.close(idx);
    }

    fn resource_snapshot(&self) -> ResourceSnapshot {
        self.rec.observed();
        self.inner.resource_snapshot()
    }
}

/// A [`PolicyCtx`] wrapper that times every call it forwards.
pub struct TracedCtx<'a, C> {
    inner: &'a mut C,
    rec: &'a Recorder,
    role: Role,
}

impl<C> TracedCtx<'_, C> {
    /// The span kind of an engine-context call; every call on a site's
    /// scoped context is federation bookkeeping around the engine call
    /// it forwards to.
    fn kind(&self, engine_kind: Kind) -> Kind {
        match self.role {
            Role::Front => engine_kind,
            Role::Site => Kind::SiteCtx,
        }
    }
}

/// Time one forwarded context call.
macro_rules! timed {
    ($self:ident, $kind:expr, $call:expr) => {{
        let idx = $self.rec.open($self.kind($kind));
        let out = $call;
        $self.rec.close(idx);
        out
    }};
}

impl<E, C: PolicyCtx<E>> PolicyCtx<E> for TracedCtx<'_, C> {
    fn schedule(&mut self, at: SimTime, ev: E) {
        timed!(self, Kind::Schedule, self.inner.schedule(at, ev))
    }
    fn end_time(&self) -> SimTime {
        timed!(self, Kind::CtxOther, self.inner.end_time())
    }
    fn fn_count(&self) -> usize {
        timed!(self, Kind::CtxOther, self.inner.fn_count())
    }
    fn service_rng(&mut self, fn_idx: u32) -> &mut SimRng {
        timed!(self, Kind::CtxOther, self.inner.service_rng(fn_idx))
    }
    fn request_info(&self, rid: ReqId) -> Option<(u32, SimTime)> {
        timed!(self, Kind::Lookup, self.inner.request_info(rid))
    }
    fn complete(&mut self, rid: ReqId, started: SimTime, now: SimTime) -> Option<Completion> {
        timed!(self, Kind::Complete, self.inner.complete(rid, started, now))
    }
    fn abandon(&mut self, rid: ReqId) -> Option<u32> {
        timed!(self, Kind::CtxOther, self.inner.abandon(rid))
    }
    fn lose(&mut self, rid: ReqId) -> Option<u32> {
        timed!(self, Kind::CtxOther, self.inner.lose(rid))
    }
    fn rerun(&mut self, rid: ReqId) -> Option<u32> {
        timed!(self, Kind::CtxOther, self.inner.rerun(rid))
    }
    fn take_window_counts(&mut self) -> Vec<u64> {
        timed!(self, Kind::CtxOther, self.inner.take_window_counts())
    }
    fn outstanding(&self) -> usize {
        timed!(self, Kind::CtxOther, self.inner.outstanding())
    }
    fn schedule_cancellable(&mut self, at: SimTime, ev: E) -> Option<u64> {
        timed!(
            self,
            Kind::Schedule,
            self.inner.schedule_cancellable(at, ev)
        )
    }
    fn cancel_scheduled(&mut self, token: u64) -> bool {
        timed!(self, Kind::Schedule, self.inner.cancel_scheduled(token))
    }
    fn note_hedged(&mut self, fn_idx: u32) {
        timed!(self, Kind::CtxOther, self.inner.note_hedged(fn_idx))
    }
    fn note_cancelled(&mut self, fn_idx: u32) {
        timed!(self, Kind::CtxOther, self.inner.note_cancelled(fn_idx))
    }
}

/// A [`RouterPolicy`] wrapper that times every pick.
pub struct TracedRouter {
    inner: Box<dyn RouterPolicy + Send>,
    rec: Recorder,
}

impl TracedRouter {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn RouterPolicy + Send>, rec: Recorder) -> Self {
        Self { inner, rec }
    }
}

impl RouterPolicy for TracedRouter {
    fn route(&mut self, fn_idx: u32, now: SimTime, sites: &[SiteState]) -> usize {
        let idx = self.rec.open(Kind::Route);
        let site = self.inner.route(fn_idx, now, sites);
        self.rec.close(idx);
        site
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Self time per layer and per kind of one thread's spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Fold {
    /// Self nanoseconds per layer, indexed like [`LAYERS`].
    pub layer_ns: [u64; 6],
    /// Calls per kind.
    pub calls: [u64; KINDS],
    /// Self nanoseconds per kind.
    pub kind_ns: [u64; KINDS],
    /// Total duration of the outermost spans.
    pub top_ns: u64,
    /// Self nanoseconds of each front-end `on_arrival`, ascending.
    pub arrival_self_ns: Vec<u64>,
}

impl Fold {
    /// Self nanoseconds charged to `layer`.
    pub fn layer(&self, layer: Layer) -> u64 {
        self.layer_ns[LAYERS
            .iter()
            .position(|&l| l == layer)
            .expect("known layer")]
    }

    /// Calls of `kind`.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    fn charge(&mut self, span: &Span, child_ns: u64) -> Result<(), String> {
        let own = (span.end - span.start)
            .checked_sub(child_ns)
            .ok_or_else(|| format!("negative self time in {span:?}"))?;
        let layer = LAYERS
            .iter()
            .position(|&l| l == span.kind.layer())
            .expect("known layer");
        self.layer_ns[layer] += own;
        self.calls[span.kind as usize] += 1;
        self.kind_ns[span.kind as usize] += own;
        if span.kind == Kind::FrontArrival {
            self.arrival_self_ns.push(own);
        }
        Ok(())
    }
}

/// Fold one thread's spans into self times. With a `window`
/// `(start, end)` — the engine call on the engine's thread — every
/// outermost span must lie inside it, and the engine is charged the
/// window's remainder; that residual must not be negative. Spans must
/// nest: a span that starts inside another must also end inside it.
pub fn fold(spans: &mut [Span], window: Option<(u64, u64)>) -> Result<Fold, String> {
    spans.sort_by(|a, b| {
        a.start
            .cmp(&b.start)
            .then(b.end.cmp(&a.end))
            .then(a.kind.rank().cmp(&b.kind.rank()))
    });
    let mut out = Fold::default();
    // Open spans, outermost first, with the time their children took.
    let mut stack: Vec<(Span, u64)> = Vec::new();
    for &span in spans.iter() {
        if span.end < span.start {
            return Err(format!("span ends before it starts: {span:?}"));
        }
        while let Some(&(top, child_ns)) = stack.last() {
            if top.end > span.start {
                break;
            }
            stack.pop();
            out.charge(&top, child_ns)?;
        }
        match stack.last_mut() {
            Some((parent, child_ns)) => {
                if span.end > parent.end {
                    return Err(format!("span {span:?} overlaps its parent {parent:?}"));
                }
                *child_ns += span.end - span.start;
            }
            None => {
                if let Some((lo, hi)) = window {
                    if span.start < lo || span.end > hi {
                        return Err(format!("span {span:?} lies outside the run"));
                    }
                }
                out.top_ns += span.end - span.start;
            }
        }
        stack.push((span, 0));
    }
    while let Some((top, child_ns)) = stack.pop() {
        out.charge(&top, child_ns)?;
    }
    if let Some((lo, hi)) = window {
        let residual = (hi - lo)
            .checked_sub(out.top_ns)
            .ok_or("negative engine residual: spans exceed the run")?;
        out.layer_ns[0] += residual;
    }
    out.arrival_self_ns.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, kind: Kind) -> Span {
        Span {
            start,
            end,
            kind,
            main: true,
        }
    }

    #[test]
    fn self_time_subtracts_nested_spans() {
        // front [0,100] ⊃ route [10,30], site [40,90] ⊃ complete [50,60];
        // a second arrival [120,140]; the run is [0,150].
        let mut spans = vec![
            span(40, 90, Kind::SiteEvent),
            span(0, 100, Kind::FrontArrival),
            span(120, 140, Kind::FrontArrival),
            span(50, 60, Kind::Complete),
            span(10, 30, Kind::Route),
        ];
        let f = fold(&mut spans, Some((0, 150))).expect("well nested");
        assert_eq!(f.layer(Layer::Federation), 30 + 20);
        assert_eq!(f.layer(Layer::Router), 20);
        assert_eq!(f.layer(Layer::Site), 40);
        assert_eq!(f.layer(Layer::Reqtable), 10);
        assert_eq!(f.layer(Layer::Engine), 30);
        assert_eq!(f.layer_ns.iter().sum::<u64>(), 150);
        assert_eq!(f.arrival_self_ns, vec![20, 30]);
        assert_eq!(f.calls(Kind::FrontArrival), 2);
        assert_eq!(f.kind_ns[Kind::FrontArrival as usize], 50);
    }

    #[test]
    fn equal_bounds_nest_by_rank() {
        let mut spans = vec![span(5, 9, Kind::Schedule), span(5, 9, Kind::SiteArrival)];
        let f = fold(&mut spans, Some((0, 10))).expect("well nested");
        assert_eq!(f.layer(Layer::Site), 0);
        assert_eq!(f.layer(Layer::Events), 4);
        assert_eq!(f.layer(Layer::Engine), 6);
    }

    #[test]
    fn negative_engine_residual_fails() {
        // Two back-to-back callbacks that together outlast the run.
        let mut spans = vec![
            span(0, 60, Kind::FrontArrival),
            span(60, 120, Kind::FrontEvent),
        ];
        assert!(fold(&mut spans, Some((0, 100))).is_err());
    }

    #[test]
    fn partial_overlap_fails() {
        let mut spans = vec![span(0, 50, Kind::FrontEvent), span(40, 70, Kind::Schedule)];
        assert!(fold(&mut spans, None).is_err());
    }

    #[test]
    fn worker_spans_fold_without_a_window() {
        let mut spans = vec![span(0, 10, Kind::SiteEvent), span(2, 5, Kind::SiteCtx)];
        let f = fold(&mut spans, None).expect("well nested");
        assert_eq!(f.top_ns, 10);
        assert_eq!(f.layer(Layer::Site), 7);
        assert_eq!(f.layer(Layer::Federation), 3);
        assert_eq!(f.layer(Layer::Engine), 0);
    }
}
