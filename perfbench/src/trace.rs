//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Every span adds to its layer's total; the first [`SPAN_CAP`] are also
//! kept in memory and written at the end of the run as Chrome trace-event
//! JSON, the format the CLI's `--trace-out` writes, so Perfetto opens it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the trace file; later spans only add to the totals.
pub const SPAN_CAP: usize = 50_000;

/// The layers the benchmark brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One document: reader construction and `Engine::run` / `MultiEngine::run`.
    Doc,
    /// `Engine::run` / `MultiEngine::run`.
    Run,
    /// `XmlReader::next_event`.
    Parse,
    /// The benchmark's match callback.
    Emit,
    /// `QueryTree::parse`.
    XPath,
    /// `Engine::new` / `MultiEngine::add_tree` on a parsed tree.
    Register,
    /// `MultiEngine::remove_query`, or dropping a single-query `Engine`.
    Retire,
}

impl Layer {
    const ALL: [Layer; 7] = [
        Layer::Doc,
        Layer::Run,
        Layer::Parse,
        Layer::Emit,
        Layer::XPath,
        Layer::Register,
        Layer::Retire,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Doc => "bench.document",
            Layer::Run => "core.run",
            Layer::Parse => "xmlsax.next_event",
            Layer::Emit => "emit.callback",
            Layer::XPath => "xpath.parse",
            Layer::Register => "core.register",
            Layer::Retire => "core.retire",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Total {
    calls: u64,
    ns: u64,
}

/// The span recorder. Disabled, it records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    totals: [Total; Layer::ALL.len()],
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled` starts it on or off.
    pub fn new(enabled: bool) -> RefCell<Tracer> {
        RefCell::new(Tracer {
            enabled,
            origin: Instant::now(),
            totals: [Total::default(); Layer::ALL.len()],
            spans: Vec::new(),
        })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a span of `layer` from `start` to `end`.
    pub fn record(&mut self, layer: Layer, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let t = &mut self.totals[layer as usize];
        t.calls += 1;
        t.ns += dur_ns;
        if self.spans.len() < SPAN_CAP {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span { layer, start_ns, dur_ns });
        }
    }

    /// Calls recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.totals[layer as usize].calls
    }

    /// Total nanoseconds recorded for `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.totals[layer as usize].ns
    }

    /// Self time of `layer`: its total minus its children's. `Run` holds
    /// `Parse` and `Emit`; `Doc` holds `Run`.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let children: &[Layer] = match layer {
            Layer::Doc => &[Layer::Run],
            Layer::Run => &[Layer::Parse, Layer::Emit],
            _ => &[],
        };
        children.iter().fold(self.ns(layer), |acc, &c| acc.saturating_sub(self.ns(c)))
    }

    /// The per-layer self-time table, one line per layer that has calls.
    pub fn table(&self) -> String {
        let doc_ns = self.ns(Layer::Doc).max(1) as f64;
        let mut out = format!(
            "{:<20} {:>10} {:>12} {:>12} {:>9}\n",
            "layer", "calls", "total_ms", "self_ms", "%stream"
        );
        for layer in Layer::ALL {
            if self.calls(layer) == 0 {
                continue;
            }
            let streaming = matches!(layer, Layer::Doc | Layer::Run | Layer::Parse | Layer::Emit);
            let share = if streaming {
                format!("{:.1}", 100.0 * self.self_ns(layer) as f64 / doc_ns)
            } else {
                "-".to_owned()
            };
            let _ = writeln!(
                out,
                "{:<20} {:>10} {:>12.3} {:>12.3} {:>9}",
                layer.name(),
                self.calls(layer),
                self.ns(layer) as f64 / 1e6,
                self.self_ns(layer) as f64 / 1e6,
                share
            );
        }
        out
    }

    /// The kept spans as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        out.push_str(
            "{\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"benchmark\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                s.layer.name(),
                s.start_ns as f64 / 1000.0,
                (s.dur_ns as f64 / 1000.0).max(0.001)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Runs `f` inside a span of `layer`.
pub fn span<T>(tracer: &RefCell<Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    if !tracer.borrow().enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    tracer.borrow_mut().record(layer, start, Instant::now());
    out
}
