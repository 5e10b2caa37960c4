//! One benchmark run: set-up, an untimed warm round that yields the exact
//! counts, then whole timed rounds until the run's time is up. Every
//! document's output is checked against the DOM oracle.
//!
//! Timed blocks of documents take turns between kinds, so that measuring
//! one thing does not tax another: throughput comes from plain blocks,
//! callback latency from stamped blocks, per-layer times from traced ones.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::io::Cursor;
use std::time::{Duration, Instant};

use vitex_core::{Engine, MachineStats, Match, MultiEngine, PlanStats, QueryId};
use vitex_xmlsax::{EventSource, XmlEvent, XmlReader, XmlResult};
use vitex_xpath::QueryTree;

use crate::alloc;
use crate::inputs::{Inputs, Rng, Solution, Stream, Workload};
use crate::trace::{span, Layer, Tracer};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// How long the timed rounds run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: documents and subscription changes.
    pub attempted: u64,
    /// Operations that failed (an engine error or a failed check).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts, the self-time table.
    pub notes: String,
    /// Chrome trace-event JSON of the traced run.
    pub chrome: Option<String>,
}

/// The percentile `emit_latency_us_tail` takes in each latency window.
/// Higher ones do not hold steady here: sub-microsecond callbacks' far tail
/// is set by a few host stalls per run.
pub const TAIL_PERCENTILE: f64 = 90.0;
/// Callbacks a latency window holds at least: consecutive stamped blocks
/// are grouped until they reach it, so each window's tail percentile has
/// 40 samples beyond it.
pub const WINDOW_SAMPLES: usize = 400;

/// How a block of documents is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The bare reader, and a callback that only notes what it received:
    /// throughput.
    Plain = 0,
    /// Every event stamped with the time and input offset it returned at,
    /// and every callback with its time: latency and buffered bytes.
    Stamped = 1,
    /// Spans around every layer call: per-layer times.
    Traced = 2,
}

enum Sut {
    Single(Engine),
    Multi(MultiEngine),
}

/// Live subscriptions of an engine.
#[derive(Default)]
struct Subs {
    /// Handles of live subscriptions.
    live: Vec<QueryId>,
    /// Pool index of each handle ever issued; `None` once removed.
    pool_of: Vec<Option<usize>>,
}

impl Subs {
    /// One live handle per distinct pool query, that is, per plan group.
    fn groups(&self) -> Vec<QueryId> {
        let mut seen = BTreeSet::new();
        self.live
            .iter()
            .copied()
            .filter(|id| seen.insert(self.pool_of[id.0].expect("live handles have a pool query")))
            .collect()
    }
}

/// The time and byte offset at which the event source last returned.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    offset: u64,
}

/// `XmlReader` as the engines' event source: bare, stamping every event,
/// or tracing every call, by the block's kind.
struct Source<'a> {
    reader: XmlReader<Cursor<&'a [u8]>>,
    mark: &'a Cell<Mark>,
    tracer: &'a RefCell<Tracer>,
    kind: Kind,
}

impl EventSource for Source<'_> {
    fn next_event(&mut self) -> XmlResult<XmlEvent> {
        match self.kind {
            Kind::Plain => self.reader.next_event(),
            Kind::Stamped => {
                let event = self.reader.next_event();
                self.mark.set(Mark { at: Instant::now(), offset: self.reader.offset() });
                event
            }
            Kind::Traced => {
                let start = Instant::now();
                let event = self.reader.next_event();
                self.tracer.borrow_mut().record(Layer::Parse, start, Instant::now());
                event
            }
        }
    }
}

/// Per-callback records of one document.
#[derive(Default)]
struct Delivered {
    /// (subscription, node) per callback.
    got: Vec<(usize, u64)>,
    /// Nanoseconds from the deciding event to the callback.
    latency_ns: Vec<u64>,
    /// Input bytes from the matched node's start to the deciding event.
    buffer_bytes: Vec<u64>,
}

impl Delivered {
    fn reset(&mut self, expected: usize) {
        self.got.clear();
        self.latency_ns.clear();
        self.buffer_bytes.clear();
        // Room for every expected callback and some wrong ones, so the
        // callback does not allocate inside the measured window.
        let room = expected + expected / 4 + 64;
        self.got.reserve(room);
        self.latency_ns.reserve(room);
        self.buffer_bytes.reserve(room);
    }

    /// Records one callback as a block of `kind` measures it.
    fn record(
        &mut self,
        kind: Kind,
        sub: usize,
        m: &Match,
        mark: &Cell<Mark>,
        tracer: &RefCell<Tracer>,
    ) {
        match kind {
            Kind::Plain => self.got.push((sub, m.node)),
            Kind::Stamped => {
                let now = Instant::now();
                let mark = mark.get();
                self.got.push((sub, m.node));
                self.latency_ns.push(now.duration_since(mark.at).as_nanos() as u64);
                self.buffer_bytes.push(mark.offset.saturating_sub(m.span.start));
            }
            Kind::Traced => {
                let start = Instant::now();
                self.got.push((sub, m.node));
                tracer.borrow_mut().record(Layer::Emit, start, Instant::now());
            }
        }
    }
}

/// Exact counts of the warm round.
#[derive(Default)]
struct Counts {
    bytes: u64,
    events: u64,
    pushes: u64,
    predicate_evals: u64,
    dispatch_hits: u64,
    candidates_created: u64,
    /// Solutions the machines emitted (one per plan group and node).
    solutions: u64,
    callbacks: u64,
    /// Largest per-document sum of `MachineStats::peak_bytes` over groups.
    machine_peak_bytes: u64,
    /// Largest per-document heap peak above the level before the document.
    heap_peak: u64,
    allocs: u64,
    alloc_bytes: u64,
    buffer_bytes: Vec<u64>,
    plan: PlanStats,
}

impl Counts {
    fn add_machine(&mut self, s: &MachineStats) -> u64 {
        self.pushes += s.pushes;
        self.predicate_evals += s.predicate_evals;
        self.dispatch_hits += s.dispatch_hits;
        self.candidates_created += s.candidates_created;
        self.solutions += s.emitted;
        s.peak_bytes
    }
}

/// Timings of the timed rounds.
#[derive(Default)]
struct Timed {
    /// Bytes streamed, by block kind.
    bytes: [u64; 3],
    /// Nanoseconds from reader construction to `run` returning, by kind.
    ns: [u64; 3],
    /// Callback latencies of the stamped blocks.
    latency_ns: Vec<u64>,
    /// One entry per untraced block.
    blocks: Vec<Block>,
}

/// The timings of one untraced block of documents.
struct Block {
    /// Throughput (plain blocks only).
    mib_s: Option<f64>,
    /// Median callback latency (stamped blocks only).
    latency_ns: Option<f64>,
    /// Median subscribe or unsubscribe call since the previous block, the
    /// set-ups before the round included (blocks that follow any).
    sub_update_ns: Option<f64>,
    /// End of the block's samples in `Timed::latency_ns`.
    latency_end: usize,
}

impl Timed {
    fn ns_per_byte(&self, kind: Kind) -> f64 {
        self.ns[kind as usize] as f64 / self.bytes[kind as usize].max(1) as f64
    }

    /// The `pct` percentile of `f` over the blocks that have it.
    fn level(&self, f: fn(&Block) -> Option<f64>, pct: f64) -> f64 {
        let mut v: Vec<f64> = self.blocks.iter().filter_map(f).collect();
        v.sort_unstable_by(f64::total_cmp);
        quantile_f(&v, pct)
    }
}

struct Bench {
    inputs: Inputs,
    tracer: RefCell<Tracer>,
    rng: Rng,
    attempted: u64,
    failed: u64,
    setup_ns: Vec<u64>,
    sub_update_ns: Vec<u64>,
    /// Start of the current block's samples in `sub_update_ns`.
    updates_mark: usize,
    /// Blocks streamed in timed rounds; picks each block's kind.
    blocks_done: usize,
    delivered: Delivered,
    notes: String,
}

/// Runs one benchmark.
pub fn run(cfg: &Config) -> Report {
    let began = Instant::now();
    let mut inputs = Inputs::generate(cfg.workload, cfg.seed, cfg.smoke);
    inputs.prime_oracle();
    let generated = began.elapsed();
    let mut b = Bench {
        rng: churn_rng(cfg.seed),
        inputs,
        tracer: Tracer::new(cfg.trace),
        attempted: 0,
        failed: 0,
        setup_ns: Vec::new(),
        sub_update_ns: Vec::new(),
        updates_mark: 0,
        blocks_done: 0,
        delivered: Delivered::default(),
        notes: String::new(),
    };
    let (mut sut, mut subs, resident) = b.setup();
    let nsubs = b.inputs.shape.subs as f64;
    let matching = subs
        .live
        .clone()
        .into_iter()
        .filter(|&id| (0..b.inputs.docs.len()).any(|d| !b.expected(&subs, id, d).is_empty()))
        .count();
    b.notes.push_str(&format!(
        "initial subscriptions that match in some document: {matching} of {}\n",
        subs.live.len()
    ));
    let warm_start = Instant::now();

    // Warm round: stamped, untraced, counted exactly.
    let traced = b.tracer.borrow().enabled();
    b.tracer.borrow_mut().set_enabled(false);
    let mut counts = Counts::default();
    b.round(&mut sut, &mut subs, Some(&mut counts), None, &[Kind::Stamped]);
    counts.plan = plan_stats(&sut, &subs);
    b.tracer.borrow_mut().set_enabled(traced);
    b.notes.push_str(&format!(
        "inputs and oracle answers made in {:.2} s; warm round {:.2} s\n",
        generated.as_secs_f64(),
        warm_start.elapsed().as_secs_f64()
    ));

    // Timed blocks cycle through their kinds, so each kind's cost over the
    // plain blocks is measured inside one process, over the same host phases.
    let kinds: &[Kind] = if cfg.trace {
        &[Kind::Traced, Kind::Plain, Kind::Stamped]
    } else {
        &[Kind::Stamped, Kind::Plain]
    };
    let mut timed = Timed::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut rounds = 0u64;
    b.updates_mark = b.sub_update_ns.len();
    loop {
        // Fresh set-ups, built and retired, spread the set-up samples over
        // the run.
        for _ in 0..b.inputs.shape.setups {
            let (fresh, fresh_subs, _) = b.setup();
            b.teardown(fresh, fresh_subs);
        }
        if b.inputs.shape.sessions() {
            // Each round replays the same session, from set-up on.
            (sut, subs, _) = b.setup();
            b.rng = churn_rng(cfg.seed);
        }
        b.round(&mut sut, &mut subs, None, Some(&mut timed), kinds);
        rounds += 1;
        if Instant::now() >= deadline && b.blocks_done >= kinds.len() {
            break;
        }
    }
    drop(sut);

    let metrics = if cfg.trace {
        b.per_layer(&counts, &timed)
    } else {
        b.end_to_end(&counts, &timed, resident as f64 / nsubs)
    };
    b.notes.push_str(&format!(
        "rounds={} docs/round={} docs/block={} round_bytes={} setup_samples={} \
         sub_update_samples={} latency_samples={}\n",
        rounds + 1,
        b.inputs.shape.round_docs,
        b.inputs.shape.block_docs,
        b.inputs.round_bytes(),
        b.setup_ns.len(),
        b.sub_update_ns.len(),
        timed.latency_ns.len()
    ));
    let tracer = b.tracer.borrow();
    if cfg.trace {
        b.notes.push_str(&tracer.table());
    }
    Report {
        attempted: b.attempted,
        failed: b.failed,
        metrics,
        notes: b.notes.clone(),
        chrome: cfg.trace.then(|| tracer.chrome_json()),
    }
}

impl Bench {
    /// Builds an engine and registers the initial subscriptions. Returns it
    /// with its subscriptions and the heap it retains.
    fn setup(&mut self) -> (Sut, Subs, u64) {
        let mut subs = Subs::default();
        subs.live.reserve(self.inputs.shape.subs);
        subs.pool_of.reserve(self.inputs.shape.subs);
        self.sub_update_ns.reserve(self.inputs.shape.subs);
        self.setup_ns.reserve(1);
        let before = alloc::now().live;
        let start = Instant::now();
        let sut = match self.inputs.workload {
            Workload::Protein => {
                self.attempted += 1;
                let t = Instant::now();
                let tree =
                    span(&self.tracer, Layer::XPath, || QueryTree::parse(&self.inputs.pool[0]))
                        .expect("the protein query parses");
                let engine = span(&self.tracer, Layer::Register, || Engine::new(&tree))
                    .expect("the protein query compiles");
                drop(tree);
                self.sub_update_ns.push(t.elapsed().as_nanos() as u64);
                subs.pool_of.push(Some(0));
                subs.live.push(QueryId(0));
                Sut::Single(engine)
            }
            _ => {
                let mut engine = MultiEngine::new();
                for i in 0..self.inputs.initial.len() {
                    let p = self.inputs.initial[i];
                    self.subscribe(&mut engine, &mut subs, p);
                }
                Sut::Multi(engine)
            }
        };
        self.setup_ns.push(start.elapsed().as_nanos() as u64);
        let resident = alloc::now().live.saturating_sub(before);
        (sut, subs, resident)
    }

    /// Retires every subscription of a set-up sample; a single-query
    /// engine is retired by dropping it.
    fn teardown(&mut self, sut: Sut, subs: Subs) {
        match sut {
            Sut::Single(engine) => {
                self.attempted += 1;
                span(&self.tracer, Layer::Retire, || drop(engine));
            }
            Sut::Multi(mut engine) => {
                for id in subs.live {
                    self.attempted += 1;
                    if span(&self.tracer, Layer::Retire, || engine.remove_query(id)).is_none() {
                        self.failed += 1;
                    }
                }
            }
        }
    }

    fn subscribe(&mut self, engine: &mut MultiEngine, subs: &mut Subs, p: usize) {
        self.attempted += 1;
        let t = Instant::now();
        let id = {
            let tracer = &self.tracer;
            span(tracer, Layer::XPath, || QueryTree::parse(&self.inputs.pool[p]))
                .map_err(vitex_core::EngineError::from)
                .and_then(|tree| span(tracer, Layer::Register, || engine.add_tree(&tree)))
        };
        self.sub_update_ns.push(t.elapsed().as_nanos() as u64);
        match id {
            Ok(id) if id.0 == subs.pool_of.len() => {
                subs.pool_of.push(Some(p));
                subs.live.push(id);
            }
            _ => self.failed += 1,
        }
    }

    fn unsubscribe(&mut self, engine: &mut MultiEngine, subs: &mut Subs, slot: usize) {
        self.attempted += 1;
        let id = subs.live.swap_remove(slot);
        let t = Instant::now();
        let removed = span(&self.tracer, Layer::Retire, || engine.remove_query(id));
        self.sub_update_ns.push(t.elapsed().as_nanos() as u64);
        subs.pool_of[id.0] = None;
        if removed.is_none() {
            self.failed += 1;
        }
    }

    /// Removes `churn` random live subscriptions and adds as many Zipf draws.
    fn churn(&mut self, sut: &mut Sut, subs: &mut Subs) {
        let Sut::Multi(engine) = sut else { return };
        for _ in 0..self.inputs.shape.churn {
            let slot = self.rng.below(subs.live.len());
            self.unsubscribe(engine, subs, slot);
        }
        for _ in 0..self.inputs.shape.churn {
            let p = self.inputs.zipf(&mut self.rng);
            self.subscribe(engine, subs, p);
        }
    }

    /// Streams the round's documents, churning before each where the
    /// workload churns. `counts` collects the warm round's exact counts;
    /// `timed` the timings of a timed round, one sample per block. Blocks
    /// take their kinds from `kinds` in turn, across rounds.
    fn round(
        &mut self,
        sut: &mut Sut,
        subs: &mut Subs,
        mut counts: Option<&mut Counts>,
        mut timed: Option<&mut Timed>,
        kinds: &[Kind],
    ) {
        let traced_run = self.tracer.borrow().enabled();
        let block_docs = self.inputs.shape.block_docs;
        let mut kind = kinds[0];
        let mut block_start = (0, 0, 0);
        for i in 0..self.inputs.shape.round_docs {
            if i % block_docs == 0 {
                kind = kinds[self.blocks_done % kinds.len()];
                if let Some(t) = timed.as_deref() {
                    let k = kind as usize;
                    block_start = (t.bytes[k], t.ns[k], t.latency_ns.len());
                }
            }
            let d = i % self.inputs.docs.len();
            self.churn(sut, subs);
            self.tracer.borrow_mut().set_enabled(kind == Kind::Traced);
            let ok = self.document(sut, subs, d, counts.as_deref_mut(), timed.as_deref_mut(), kind);
            self.tracer.borrow_mut().set_enabled(traced_run);
            self.attempted += 1;
            if !ok {
                self.failed += 1;
            }
            let Some(t) = timed.as_deref_mut() else { continue };
            if (i + 1) % block_docs != 0 && i + 1 != self.inputs.shape.round_docs {
                continue;
            }
            self.blocks_done += 1;
            let k = kind as usize;
            let updates = &self.sub_update_ns[self.updates_mark..];
            if kind != Kind::Traced {
                let mib = (t.bytes[k] - block_start.0) as f64 / (1 << 20) as f64;
                let latency = &t.latency_ns[block_start.2..];
                t.blocks.push(Block {
                    mib_s: (kind == Kind::Plain)
                        .then(|| mib / ((t.ns[k] - block_start.1) as f64 / 1e9)),
                    latency_ns: (kind == Kind::Stamped).then(|| median(latency)),
                    sub_update_ns: (!updates.is_empty()).then(|| median(updates)),
                    latency_end: t.latency_ns.len(),
                });
            }
            self.updates_mark = self.sub_update_ns.len();
        }
    }

    /// Streams document `d` and checks its output. Returns whether every
    /// check held.
    fn document(
        &mut self,
        sut: &mut Sut,
        subs: &Subs,
        d: usize,
        counts: Option<&mut Counts>,
        timed: Option<&mut Timed>,
        kind: Kind,
    ) -> bool {
        let expected_callbacks: usize =
            subs.live.iter().map(|id| self.expected(subs, *id, d).len()).sum();
        self.delivered.reset(expected_callbacks);
        let doc = &self.inputs.docs[d];
        let mark = Cell::new(Mark { at: Instant::now(), offset: 0 });
        let tracer = &self.tracer;
        let delivered = &mut self.delivered;
        let heap_before = alloc::now();
        alloc::reset_peak();

        let start = Instant::now();
        let source = Source { reader: XmlReader::from_slice(doc), mark: &mark, tracer, kind };
        let run_start = Instant::now();
        let (outcome, events) = match sut {
            Sut::Single(engine) => {
                let out = engine.run(source, |m| delivered.record(kind, 0, &m, &mark, tracer));
                let events = out.as_ref().map_or(0, |o| o.events);
                (out.map(Output::Single), events)
            }
            Sut::Multi(engine) => {
                let out = engine.run(source, |q, m| delivered.record(kind, q.0, &m, &mark, tracer));
                let events = out.as_ref().map_or(0, |o| o.events);
                (out.map(Output::Multi), events)
            }
        };
        let end = Instant::now();
        let heap_after = alloc::now();
        if kind == Kind::Traced {
            let mut t = tracer.borrow_mut();
            t.record(Layer::Run, run_start, end);
            t.record(Layer::Doc, start, end);
        }

        let bytes = doc.len() as u64;
        if let Some(timed) = timed {
            timed.bytes[kind as usize] += bytes;
            timed.ns[kind as usize] += end.duration_since(start).as_nanos() as u64;
            timed.latency_ns.extend_from_slice(&self.delivered.latency_ns);
        }
        let Ok(out) = outcome else { return false };
        if let Some(c) = counts {
            c.bytes += bytes;
            c.events += events;
            c.callbacks += self.delivered.got.len() as u64;
            c.buffer_bytes.extend_from_slice(&self.delivered.buffer_bytes);
            c.heap_peak = c.heap_peak.max(heap_after.peak.saturating_sub(heap_before.live));
            c.allocs += heap_after.allocs - heap_before.allocs;
            c.alloc_bytes += heap_after.alloc_bytes - heap_before.alloc_bytes;
            let machine_peak = match &out {
                Output::Single(o) => c.add_machine(&o.stats),
                Output::Multi(o) => {
                    subs.groups().iter().map(|id| c.add_machine(&o.stats[id.0])).sum()
                }
            };
            c.machine_peak_bytes = c.machine_peak_bytes.max(machine_peak);
        }
        self.check(subs, d, &out)
    }

    fn expected(&mut self, subs: &Subs, id: QueryId, d: usize) -> &[Solution] {
        let p = subs.pool_of[id.0].expect("live handles have a pool query");
        self.inputs.expected(p, d)
    }

    /// The correctness gate of one document: match sets equal the oracle's,
    /// each subscriber got each solution exactly once, removed
    /// subscriptions got nothing, and every distinct live query runs as
    /// its own plan group.
    fn check(&mut self, subs: &Subs, d: usize, out: &Output) -> bool {
        let mut want: Vec<(usize, u64)> = Vec::new();
        let mut ok = true;
        for &id in &subs.live {
            let got = out.matches(id);
            let expected = self.expected(subs, id, d);
            let mut got: Vec<(u64, Option<&str>)> =
                got.iter().map(|m| (m.node, m.value.as_deref())).collect();
            got.sort_unstable();
            ok &= got.len() == expected.len()
                && got.iter().zip(expected).all(|(g, e)| g.0 == e.0 && g.1 == e.1.as_deref());
            want.extend(expected.iter().map(|e| (id.0, e.0)));
        }
        if let Output::Multi(o) = out {
            for (i, p) in subs.pool_of.iter().enumerate() {
                ok &= p.is_some() || o.matches.get(i).is_none_or(Vec::is_empty);
            }
            ok &= o.plan.groups == subs.groups().len() as u64;
            if self.inputs.workload == Workload::Distinct {
                ok &= o.plan.groups == self.inputs.shape.subs as u64;
            }
        }
        let mut got = self.delivered.got.clone();
        got.sort_unstable();
        want.sort_unstable();
        ok && got == want
    }

    fn end_to_end(&mut self, c: &Counts, timed: &Timed, resident_per_sub: f64) -> Vec<Metric> {
        // Window tails: each window's TAIL_PERCENTILE, at the level nine
        // windows in ten meet. Samples after the last full window are left
        // out; a run with fewer samples than one window is one window.
        let mut tails = Vec::new();
        let mut start = 0;
        for b in timed.blocks.iter().filter(|b| b.latency_ns.is_some()) {
            if b.latency_end - start >= WINDOW_SAMPLES {
                let mut w = timed.latency_ns[start..b.latency_end].to_vec();
                w.sort_unstable();
                tails.push(quantile(&w, TAIL_PERCENTILE));
                start = b.latency_end;
            }
        }
        if tails.is_empty() {
            let mut w = timed.latency_ns.clone();
            w.sort_unstable();
            tails.push(quantile(&w, TAIL_PERCENTILE));
        }
        tails.sort_unstable_by(f64::total_cmp);
        let tail = quantile_f(&tails, 90.0);
        self.notes.push_str(&format!(
            "emit_latency_us_tail: p{TAIL_PERCENTILE} of {} windows of at least {WINDOW_SAMPLES} \
             callbacks ({} callbacks in all)\n",
            tails.len(),
            timed.latency_ns.len()
        ));
        let mut setup = self.setup_ns.clone();
        setup.sort_unstable();
        let mib_s = timed.level(|b| b.mib_s, 10.0);
        self.notes.push_str(&format!(
            "plain block MiB/s: min {:.3} p10 {:.3} median {:.3} max {:.3}; over all plain \
             blocks {:.3}\nstamping overhead: {:.1}% (stamped blocks' time per byte over \
             plain blocks')\n",
            timed.level(|b| b.mib_s, 0.0),
            mib_s,
            timed.level(|b| b.mib_s, 50.0),
            timed.level(|b| b.mib_s, 100.0),
            1.0 / timed.ns_per_byte(Kind::Plain) * 1e9 / (1 << 20) as f64,
            100.0 * (timed.ns_per_byte(Kind::Stamped) / timed.ns_per_byte(Kind::Plain) - 1.0)
        ));
        vec![
            Metric { name: "throughput_mib_s", unit: "MiB/s", value: mib_s },
            Metric {
                name: "emit_latency_us_p50",
                unit: "us",
                value: timed.level(|b| b.latency_ns, 90.0) / 1e3,
            },
            Metric { name: "emit_latency_us_tail", unit: "us", value: tail / 1e3 },
            Metric { name: "setup_s", unit: "s", value: quantile(&setup, 50.0) / 1e9 },
            Metric {
                name: "sub_update_us_p50",
                unit: "us",
                value: timed.level(|b| b.sub_update_ns, 50.0) / 1e3,
            },
            Metric {
                name: "heap_peak_mib",
                unit: "MiB",
                value: c.heap_peak as f64 / (1 << 20) as f64,
            },
            Metric { name: "sub_resident_kib", unit: "KiB", value: resident_per_sub / 1024.0 },
        ]
    }

    fn per_layer(&mut self, c: &Counts, timed: &Timed) -> Vec<Metric> {
        let t = self.tracer.borrow();
        let traced_kib = timed.bytes[Kind::Traced as usize] as f64 / 1024.0;
        let per_call_us = |l: Layer| t.ns(l) as f64 / t.calls(l).max(1) as f64 / 1e3;
        let kib = c.bytes as f64 / 1024.0;
        let events = c.events.max(1) as f64;
        let solutions = c.solutions.max(1) as f64;
        let plain = timed.ns_per_byte(Kind::Plain);
        let overhead_pct = 100.0 * (timed.ns_per_byte(Kind::Traced) / plain - 1.0);
        let stamp_pct = 100.0 * (timed.ns_per_byte(Kind::Stamped) / plain - 1.0);
        self.notes.push_str(&format!(
            "overhead over plain blocks ({:.0} ns/KiB): tracing {overhead_pct:.1}%, \
             stamping {stamp_pct:.1}%\n",
            plain * 1024.0
        ));
        let mut buffer = c.buffer_bytes.clone();
        buffer.sort_unstable();
        let m = |name, unit, value| Metric { name, unit, value };
        vec![
            m("xmlsax.parse_ns_per_kib", "ns/KiB", t.ns(Layer::Parse) as f64 / traced_kib),
            m("xmlsax.events_per_kib", "1/KiB", c.events as f64 / kib),
            m("core.match_ns_per_kib", "ns/KiB", t.self_ns(Layer::Run) as f64 / traced_kib),
            m("xpath.parse_us_per_query", "us", per_call_us(Layer::XPath)),
            m("core.register_us_per_query", "us", per_call_us(Layer::Register)),
            m("core.retire_us_per_query", "us", per_call_us(Layer::Retire)),
            m("core.multi.dispatch_hits_per_event", "1/event", c.dispatch_hits as f64 / events),
            m("core.machine.pushes_per_event", "1/event", c.pushes as f64 / events),
            m(
                "core.machine.predicate_evals_per_event",
                "1/event",
                c.predicate_evals as f64 / events,
            ),
            m("core.machine.evals_per_match", "1/match", c.predicate_evals as f64 / solutions),
            m(
                "core.machine.candidates_created_per_event",
                "1/event",
                c.candidates_created as f64 / events,
            ),
            m("core.machine.peak_kib", "KiB", c.machine_peak_bytes as f64 / 1024.0),
            m("core.multi.callbacks_per_solution", "1/match", c.callbacks as f64 / solutions),
            m("core.plan.groups", "count", c.plan.groups as f64),
            m("core.plan.machine_nodes", "count", c.plan.machine_nodes as f64),
            m("core.plan.trie_nodes", "count", c.plan.trie_nodes as f64),
            m("core.plan.plan_kib", "KiB", c.plan.plan_bytes as f64 / 1024.0),
            m("core.plan.recycled_slots", "count", c.plan.recycled_slots as f64),
            m("emit.buffer_bytes_p50", "bytes", quantile(&buffer, 50.0)),
            m("emit.buffer_bytes_max", "bytes", buffer.last().copied().unwrap_or(0) as f64),
            m("heap.allocs_per_kib", "1/KiB", c.allocs as f64 / kib),
            m("heap.alloc_kib_per_kib", "KiB/KiB", c.alloc_bytes as f64 / 1024.0 / kib),
            m("emit.stamp_overhead_pct", "%", stamp_pct),
            m("trace.overhead_pct", "%", overhead_pct),
        ]
    }
}

enum Output {
    Single(vitex_core::EvalOutput),
    Multi(vitex_core::MultiOutput),
}

impl Output {
    fn matches(&self, id: QueryId) -> &[Match] {
        match self {
            Output::Single(o) => &o.matches,
            Output::Multi(o) => &o.matches[id.0],
        }
    }
}

/// The churn steps of a session: the same for every session of a run.
fn churn_rng(seed: u64) -> Rng {
    Rng::new(crate::inputs::derive(seed, Stream::Subs, 1))
}

fn plan_stats(sut: &Sut, subs: &Subs) -> PlanStats {
    match sut {
        Sut::Single(e) => PlanStats {
            queries: 1,
            groups: 1,
            machine_nodes: e.machine().spec().len() as u64,
            ..PlanStats::default()
        },
        Sut::Multi(e) => {
            debug_assert_eq!(e.len(), subs.live.len());
            e.plan_stats()
        }
    }
}

/// The `pct` percentile of sorted `v`, interpolated between neighbours.
pub fn quantile(v: &[u64], pct: f64) -> f64 {
    let v: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    quantile_f(&v, pct)
}

/// [`quantile`] over sorted floats.
fn quantile_f(v: &[f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = (v.len() - 1) as f64 * pct / 100.0;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of unsorted `v`.
fn median(v: &[u64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable();
    quantile(&v, 50.0)
}
