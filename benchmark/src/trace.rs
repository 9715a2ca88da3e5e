//! Spans recorded from outside the program, at its public seams.
//!
//! The receiver pipeline is wrapped stage by stage ([`TimedStage`]) under
//! one span per buffer or region ([`UnitStage`]); the cell simulator's
//! signal-level resolver is wrapped in a [`TimedResolver`]. Spans stay in
//! memory until the run ends. A layer's self time is its spans' duration
//! minus the part their child spans cover.

use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zigzag_core::engine::{
    CaptureStage, DecodeStage, DetectStage, Flow, MatchStage, Pipeline, PlanStage, ReceiverCore,
    RecoverStage, StandardDecodeStage, StoreStage, UnitCtx, ZigzagStage,
};
use zigzag_core::ReceiverEvent;
use zigzag_mac::cell::{CollisionResolver, CollisionRound, RoundResolution};

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The buffer, region or resolve call the span belongs to (the
    /// recorder's running count of top-level spans).
    pub unit: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The stage ended the pipeline (`Flow::Done`).
    pub done: bool,
    /// Frames delivered inside the span (for a resolver span: rounds).
    pub count: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct Spans {
    spans: Vec<Span>,
    open: Option<usize>,
    units: u64,
}

/// An in-memory span sink. Nesting is tracked per recorder, so one
/// recorder serves one decode thread at a time.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Spans>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Self { epoch: Instant::now(), inner: Mutex::new(Spans::default()) })
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.inner.lock().expect("span recorder poisoned by a panicking decode thread")
    }

    /// Opens a top-level span; later [`Recorder::record`] calls nest
    /// under it until [`Recorder::close`].
    pub fn open(&self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut s = self.lock();
        let unit = s.units;
        s.units += 1;
        let index = s.spans.len();
        s.spans.push(Span {
            name,
            unit,
            parent: None,
            start_ns,
            end_ns: start_ns,
            done: false,
            count: 0,
        });
        s.open = Some(index);
        index
    }

    pub fn close(&self, index: usize, count: u32) {
        let end_ns = self.ns(Instant::now());
        let mut s = self.lock();
        let span = &mut s.spans[index];
        span.end_ns = end_ns;
        span.count = count;
        s.open = None;
    }

    /// Records a finished span under the open one.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, done: bool, count: u32) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut s = self.lock();
        let parent = s.open;
        let unit = parent.map_or(s.units, |p| s.spans[p].unit);
        s.spans.push(Span { name, unit, parent, start_ns, end_ns, done, count });
    }

    /// Removes and returns every span recorded so far. Parent indices
    /// point into the returned batch.
    pub fn take(&self) -> Vec<Span> {
        let mut s = self.lock();
        s.open = None;
        std::mem::take(&mut s.spans)
    }
}

fn delivered(events: &[ReceiverEvent]) -> u32 {
    events.iter().filter(|e| matches!(e, ReceiverEvent::Delivered { .. })).count() as u32
}

/// A pipeline stage under a span.
pub struct TimedStage {
    inner: Box<dyn DecodeStage>,
    rec: Arc<Recorder>,
}

impl DecodeStage for TimedStage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        let before = events.len();
        let start = Instant::now();
        let flow = self.inner.run(rx, unit, events);
        let end = Instant::now();
        let frames = delivered(&events[before..]);
        self.rec.record(self.inner.name(), start, end, flow == Flow::Done, frames);
        flow
    }
}

/// Runs a whole inner pipeline as one stage under a top-level `unit`
/// span: one span per buffer or region, the parent of any stage spans.
pub struct UnitStage {
    inner: Pipeline,
    rec: Arc<Recorder>,
}

impl DecodeStage for UnitStage {
    fn name(&self) -> &'static str {
        "unit"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        let span = self.rec.open("unit");
        let out = self.inner.run_unit(rx, unit);
        self.rec.close(span, delivered(&out));
        events.extend(out);
        Flow::Done
    }
}

/// The standard stages, one by one, in [`Pipeline::standard`] order.
pub fn standard_stages() -> Vec<Box<dyn DecodeStage>> {
    vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(PlanStage),
        Box::new(ZigzagStage),
        Box::new(RecoverStage),
        Box::new(StoreStage),
    ]
}

/// The standard pipeline under one `unit` span per buffer; with
/// `per_stage`, every stage also runs under its own span.
pub fn unit_pipeline(rec: &Arc<Recorder>, per_stage: bool) -> Pipeline {
    let inner = if per_stage {
        let stages = standard_stages()
            .into_iter()
            .map(|inner| Box::new(TimedStage { inner, rec: rec.clone() }) as Box<dyn DecodeStage>)
            .collect();
        Pipeline::from_stages(stages)
    } else {
        Pipeline::standard()
    };
    Pipeline::from_stages(vec![Box::new(UnitStage { inner, rec: rec.clone() })])
}

/// A collision resolver under one top-level `service` span per call.
pub struct TimedResolver<'a> {
    pub inner: &'a mut dyn CollisionResolver,
    pub rec: Arc<Recorder>,
}

impl CollisionResolver for TimedResolver<'_> {
    fn resolve(&mut self, rounds: &[CollisionRound]) -> Vec<RoundResolution> {
        let span = self.rec.open("service");
        let out = self.inner.resolve(rounds);
        self.rec.close(span, rounds.len() as u32);
        out
    }

    fn retire(&mut self, episode: u64) {
        self.inner.retire(episode);
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    pub busy_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
    pub done: u64,
    pub count: u64,
    /// Spans whose `count` was non-zero.
    pub hits: u64,
}

/// Totals of the spans named `name`; self time subtracts the spans
/// nested directly under each of them.
pub fn totals(spans: &[Span], name: &str) -> LayerTotals {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut t = LayerTotals::default();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
        t.busy_ns += s.ns();
        t.self_ns += s.ns() - child_ns[i].min(s.ns());
        t.calls += 1;
        t.done += u64::from(s.done);
        t.count += u64::from(s.count);
        t.hits += u64::from(s.count > 0);
    }
    t
}

/// Writes spans as JSON lines (`name`, `unit`, `parent`, `start_ns`,
/// `end_ns`, `done`, `count`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\": \"{}\", \"unit\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"done\": {}, \"count\": {}}}",
            s.name, s.unit, parent, s.start_ns, s.end_ns, s.done, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::hidden_pair;
    use zigzag_core::config::DecoderConfig;
    use zigzag_phy::frame::{encode_frame, Frame};
    use zigzag_phy::modulation::Modulation;
    use zigzag_phy::preamble::Preamble;

    #[test]
    fn standard_stages_mirror_the_standard_pipeline() {
        let ours: Vec<&str> = standard_stages().iter().map(|s| s.name()).collect();
        assert_eq!(ours, Pipeline::standard().stage_names());
    }

    #[test]
    fn wrapped_pipeline_leaves_events_unchanged() {
        let mut rng = StdRng::seed_from_u64(5);
        let (la, lb) =
            (LinkProfile::clean_with_omega(17.0, -0.13), LinkProfile::clean_with_omega(17.0, 0.14));
        let air = |src: u16| {
            encode_frame(
                &Frame::with_random_payload(0, src, 1, 60, src.into()),
                Modulation::Bpsk,
                &Preamble::default_len(),
            )
        };
        let hp = hidden_pair(&air(1), &air(2), &la, &lb, 180, 60, &mut rng);
        let registry = zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]);
        let buffers = [hp.collision1.buffer, hp.collision2.buffer];
        let run = |pipeline: &Pipeline| {
            let mut core = ReceiverCore::new(DecoderConfig::default(), registry.clone());
            buffers.iter().map(|b| core.receive(pipeline, b)).collect::<Vec<_>>()
        };
        let reference = run(&Pipeline::standard());
        assert!(reference.iter().flatten().any(|e| matches!(e, ReceiverEvent::Delivered { .. })));
        for per_stage in [false, true] {
            let rec = Recorder::new();
            assert_eq!(run(&unit_pipeline(&rec, per_stage)), reference, "per_stage={per_stage}");
            let spans = rec.take();
            let units = totals(&spans, "unit");
            assert_eq!(units.calls, 2);
            let frames = reference.iter().map(|e| delivered(e)).sum::<u32>();
            assert_eq!(units.count, u64::from(frames));
            let stage_ns: u64 = spans.iter().filter(|s| s.parent.is_some()).map(Span::ns).sum();
            assert_eq!(units.self_ns + stage_ns, units.busy_ns, "self time = span - children");
            if per_stage {
                assert_eq!(totals(&spans, "detect").calls, 2);
                assert!(spans.iter().filter(|s| s.name != "unit").all(|s| s.parent.is_some()));
            } else {
                assert_eq!(spans.len(), 2);
            }
        }
    }

    #[test]
    fn totals_subtract_child_spans() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            unit: 0,
            parent,
            start_ns,
            end_ns,
            done: false,
            count: 0,
        };
        let spans = vec![
            span("unit", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
        ];
        let unit = totals(&spans, "unit");
        assert_eq!((unit.busy_ns, unit.self_ns, unit.calls), (100, 50, 1));
        assert_eq!(totals(&spans, "a").self_ns, 30);
    }
}
