//! Direct calls into each layer's public functions, on the same inputs
//! a workload sends over the wire, each inside a span of its own.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use limits::Limits;
use validator::ValidationErrorKind;
use webgen::{CompiledDirectoryPage, DocSession, OrderTemplates, SchemaRegistry};
use xmlparse::FeedReader;

use crate::alloc;
use crate::gen::{Input, Workload};
use crate::stats::median;
use crate::trace::{self_times_us, Span, Tracer};

/// The chunk size the streaming validator reads a body in.
const READ_CHUNK: usize = 64 << 10;

/// Spans and per-call samples of one replay.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    pub spans: Vec<Span>,
    /// Per request index: the summed time of its top-level layer calls.
    pub per_request_us: BTreeMap<usize, f64>,
    allocs: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl<'t> Recorder<'t> {
    pub fn new(tracer: &'t Tracer) -> Recorder<'t> {
        Recorder {
            tracer,
            spans: Vec::new(),
            per_request_us: BTreeMap::new(),
            allocs: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Times `f` as a span named `name`; a span without a parent counts
    /// toward its request's layer total.
    fn call<T>(
        &mut self,
        name: &'static str,
        req: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let a0 = alloc::local();
        let t0 = Instant::now();
        let out = black_box(f());
        let t1 = Instant::now();
        let a1 = alloc::local();
        let span = self.tracer.span(name, req as u64, t0, t1, parent);
        if parent.is_none() {
            *self.per_request_us.entry(req).or_default() += span.us();
        }
        self.spans.push(span);
        self.allocs.entry(name).or_default().push((a1 - a0) as f64);
        (out, self.spans.len() - 1)
    }

    fn add(&mut self, count: &'static str, n: f64) {
        *self.counts.entry(count).or_default() += n;
    }

    fn count(&self, count: &'static str) -> f64 {
        self.counts.get(count).copied().unwrap_or(0.0)
    }

    fn times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    fn self_times(&self, name: &str) -> Vec<f64> {
        let own = self_times_us(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }
}

/// One per-layer figure with the base it was taken over.
pub struct Figure {
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

pub type Figures = BTreeMap<&'static str, Figure>;

fn put(out: &mut Figures, name: &'static str, value: f64, unit: &'static str, base: String) {
    out.insert(name, Figure { value, unit, base });
}

fn put_time(out: &mut Figures, name: &'static str, samples: &[f64]) {
    put(
        out,
        name,
        median(samples),
        "us",
        format!("median of {} calls", samples.len()),
    );
}

/// Allocation counts per call are medians, so a rare growth of a shared
/// buffer does not make the figure differ between two runs.
fn put_allocs(out: &mut Figures, rec: &Recorder, layer: &'static str, name: &'static str) {
    let samples = &rec.allocs[layer];
    put(
        out,
        name,
        median(samples),
        "count",
        format!("median of {} calls", samples.len()),
    );
}

/// The registry's compiled page plans, built once as the server does
/// on its first page request.
pub struct Plans {
    orders: OrderTemplates,
    directory: CompiledDirectoryPage,
}

impl Plans {
    pub fn new(registry: &SchemaRegistry) -> Plans {
        let po = registry
            .get("purchase-order")
            .expect("corpus registers purchase-order");
        let wml = registry.get("wml").expect("corpus registers wml");
        Plans {
            orders: OrderTemplates::new(&po).expect("order templates check"),
            directory: CompiledDirectoryPage::new(&wml).expect("directory page checks"),
        }
    }
}

/// Feeds `doc` to a fresh feed reader in read-sized chunks with a sink
/// that only counts events.
fn feed_only(doc: &str) -> u64 {
    let mut reader = FeedReader::with_limits(Limits::default());
    let mut events = 0u64;
    let mut going = true;
    for chunk in doc.as_bytes().chunks(READ_CHUNK) {
        going = matches!(
            reader.feed(chunk, |_| {
                events += 1;
                true
            }),
            Ok(true)
        );
        if !going {
            break;
        }
    }
    if going {
        let _ = reader.finish(|_| {
            events += 1;
            true
        });
    }
    events
}

/// Replays every request of `w` directly.
pub fn replay(rec: &mut Recorder, registry: &SchemaRegistry, plans: &Plans, w: &Workload) {
    let mut session = None;
    for i in 0..w.requests.len() {
        replay_one(rec, registry, plans, w, i, &mut session);
    }
}

/// Makes request `i`'s layer calls directly. `session` carries a
/// `session-patch` script's open document from one request to the next.
pub fn replay_one(
    rec: &mut Recorder,
    registry: &SchemaRegistry,
    plans: &Plans,
    w: &Workload,
    i: usize,
    session: &mut Option<DocSession>,
) {
    match &w.requests[i].input {
        Input::Validate { schema, doc } => {
            let (errors, rv) = rec.call("webgen.registry_validate", i, None, || {
                registry
                    .validate_streaming_reader_with_limits(
                        schema,
                        doc.as_bytes(),
                        &Limits::default(),
                    )
                    .expect("schema is registered")
                    .expect("in-memory reads cannot fail")
            });
            let (events, _) = rec.call("xmlparse.feed", i, Some(rv), || feed_only(doc));
            rec.call("serve.json_verdict", i, None, || {
                serve::json::verdict_json(schema, &errors)
            });
            let trips = errors
                .iter()
                .filter(|e| matches!(e.kind, ValidationErrorKind::Resource(_)))
                .count();
            rec.add("validate.docs", 1.0);
            rec.add("validate.events", events as f64);
            rec.add("validate.errors", errors.len() as f64);
            rec.add("validate.trips", trips as f64);
        }
        Input::OrderPage { seed, count } => {
            let (order, _) = rec.call("webgen.generate", i, None, || {
                webgen::generate_order(*seed, *count)
            });
            let (page, _) = rec.call("pxml.render", i, None, || {
                plans
                    .orders
                    .render_compiled(&order)
                    .expect("checked plans render")
            });
            rec.add("page.pages", 1.0);
            rec.add("page.bytes", page.len() as f64);
        }
        Input::DirectoryPage {
            seed,
            breadth,
            depth,
        } => {
            let (data, _) = rec.call("webgen.generate", i, None, || {
                let archive = webgen::MediaArchive::generate(*seed, *breadth, *depth);
                webgen::DirectoryPageData::from_media(&archive.root())
            });
            let (page, _) = rec.call("pxml.render", i, None, || {
                plans.directory.render(&data).expect("checked plans render")
            });
            rec.add("page.pages", 1.0);
            rec.add("page.bytes", page.len() as f64);
        }
        Input::Open { doc } => {
            let (opened, o) = rec.call("webgen.session_open", i, None, || {
                registry
                    .open_session("purchase-order", doc, Limits::default())
                    .expect("generated orders are valid")
            });
            rec.call("xmlparse.tree", i, Some(o), || {
                xmlparse::parse_document_with_limits(doc, &Limits::default())
                    .expect("generated orders are well-formed")
            });
            *session = Some(opened);
        }
        Input::Patch { json, patch } => {
            rec.call("serve.json_parse", i, None, || {
                serve::json::parse_json(json).expect("generated patches are JSON")
            });
            let s = session.as_mut().expect("a patch follows an open");
            let (result, _) = rec.call("webgen.session_apply", i, None, || s.apply(patch));
            rec.add("patch.attempted", 1.0);
            rec.add("patch.rejected", if result.is_err() { 1.0 } else { 0.0 });
            rec.add("patch.rechecked", s.validator().nodes_rechecked() as f64);
        }
        Input::Get => {
            let s = session.as_ref().expect("a get follows an open");
            rec.call("dom.serialize", i, None, || s.to_xml());
        }
        Input::Delete => *session = None,
    }
}

/// Every per-layer figure the three replays give.
pub fn figures(validate: &Recorder, page: &Recorder, sessions: &Recorder) -> Figures {
    let mut out = Figures::new();
    let v = validate;
    let docs = v.count("validate.docs");
    put_time(
        &mut out,
        "webgen.registry_validate_us",
        &v.times("webgen.registry_validate"),
    );
    put_time(&mut out, "xmlparse.feed_us", &v.times("xmlparse.feed"));
    put_time(
        &mut out,
        "validator.stream_self_us",
        &v.self_times("webgen.registry_validate"),
    );
    put_time(
        &mut out,
        "serve.json_verdict_us",
        &v.times("serve.json_verdict"),
    );
    let per_doc = |what: &'static str| format!("{} {what} / {docs} documents", v.count(what));
    put(
        &mut out,
        "xmlparse.events_per_req",
        v.count("validate.events") / docs,
        "count",
        per_doc("validate.events"),
    );
    put(
        &mut out,
        "validator.errors_per_req",
        v.count("validate.errors") / docs,
        "count",
        per_doc("validate.errors"),
    );
    put(
        &mut out,
        "limits.trips_per_run",
        v.count("validate.trips"),
        "count",
        format!("over {docs} documents"),
    );
    put_allocs(
        &mut out,
        v,
        "webgen.registry_validate",
        "webgen.registry_validate_allocs",
    );
    put_allocs(&mut out, v, "xmlparse.feed", "xmlparse.feed_allocs");
    put_allocs(
        &mut out,
        v,
        "serve.json_verdict",
        "serve.json_verdict_allocs",
    );

    let p = page;
    let pages = p.count("page.pages");
    put_time(&mut out, "webgen.generate_us", &p.times("webgen.generate"));
    put_time(&mut out, "pxml.render_us", &p.times("pxml.render"));
    put(
        &mut out,
        "pxml.bytes_per_page",
        p.count("page.bytes") / pages,
        "count",
        format!("{} bytes / {pages} pages", p.count("page.bytes")),
    );
    put_allocs(&mut out, p, "webgen.generate", "webgen.generate_allocs");
    put_allocs(&mut out, p, "pxml.render", "pxml.render_allocs");

    let s = sessions;
    let attempted = s.count("patch.attempted");
    put_time(
        &mut out,
        "webgen.session_open_us",
        &s.times("webgen.session_open"),
    );
    put_time(&mut out, "xmlparse.tree_us", &s.times("xmlparse.tree"));
    put_time(
        &mut out,
        "validator.tree_us",
        &s.self_times("webgen.session_open"),
    );
    put_time(
        &mut out,
        "webgen.session_apply_us",
        &s.times("webgen.session_apply"),
    );
    put_time(
        &mut out,
        "serve.json_parse_us",
        &s.times("serve.json_parse"),
    );
    put_time(&mut out, "dom.serialize_us", &s.times("dom.serialize"));
    put(
        &mut out,
        "validator.nodes_rechecked_per_patch",
        s.count("patch.rechecked") / attempted,
        "count",
        format!("{} nodes / {attempted} patches", s.count("patch.rechecked")),
    );
    put(
        &mut out,
        "validator.patch_reject_ratio",
        s.count("patch.rejected") / attempted,
        "ratio",
        format!(
            "{} rejected / {attempted} attempted",
            s.count("patch.rejected")
        ),
    );
    for (layer, name) in [
        ("webgen.session_open", "webgen.session_open_allocs"),
        ("xmlparse.tree", "xmlparse.tree_allocs"),
        ("webgen.session_apply", "webgen.session_apply_allocs"),
        ("serve.json_parse", "serve.json_parse_allocs"),
        ("dom.serialize", "dom.serialize_allocs"),
    ] {
        put_allocs(&mut out, s, layer, name);
    }
    out
}
