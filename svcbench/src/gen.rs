//! Seeded inputs for every workload, each with the answer the server
//! must give. Verdicts and patch outcomes are known by construction —
//! the generator records which fault it injected. Page bodies and final
//! session documents come from code paths the server does not run: the
//! unchecked string renderers and an unvalidated tree replay.

use std::sync::Arc;

use validator::{DomPatch, NewNode};

use crate::http;
use crate::rng::{stratified, Rng};

/// What a correct server answers.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `200` with exactly this body (a verdict, a page, a session's
    /// document).
    Bytes(Arc<[u8]>),
    /// `200`, `"valid":false`, and an error of this kind.
    Invalid { kind: &'static str },
    /// A resource trip: this status and `"resource":"<label>"`.
    Refused { status: u16, resource: &'static str },
    /// `201` and a session id.
    SessionOpen,
    /// `200` and `"applied":<applied>`.
    Patch { applied: bool },
    /// `200` `{"closed":true}`.
    Closed,
}

/// What a request asks of the layers, so the traced run can make the
/// same calls directly.
#[derive(Debug, Clone)]
pub enum Input {
    Validate {
        schema: &'static str,
        doc: Arc<str>,
    },
    OrderPage {
        seed: u64,
        count: usize,
    },
    DirectoryPage {
        seed: u64,
        breadth: usize,
        depth: usize,
    },
    Open {
        doc: Arc<str>,
    },
    Patch {
        json: String,
        patch: DomPatch,
    },
    Get,
    Delete,
}

/// How a request goes on the wire.
#[derive(Debug, Clone)]
pub enum Wire {
    /// Complete request bytes.
    Fixed(Vec<u8>),
    /// `{method} /v1/session/{id}{suffix}` with a `Content-Length` body;
    /// the id is known only once the session is open.
    InSession {
        method: &'static str,
        suffix: &'static str,
        body: Vec<u8>,
    },
}

impl Wire {
    /// The bytes to send, given the live session id (if any).
    pub fn bytes<'a>(&'a self, session: Option<u64>, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        match self {
            Wire::Fixed(bytes) => bytes,
            Wire::InSession {
                method,
                suffix,
                body,
            } => {
                let id = session.expect("a session request is sent only inside a session");
                *scratch = http::encode(method, &format!("/v1/session/{id}{suffix}"), body, false);
                scratch
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub wire: Wire,
    pub input: Input,
    pub expect: Expect,
}

/// A named workload's request sequence. Clients cycle through it;
/// connection `c` of `conns` starts at its own script boundary.
pub struct Workload {
    pub name: &'static str,
    pub conns: usize,
    /// Open a fresh connection (with `Connection: close`) per request.
    pub fresh_connections: bool,
    pub requests: Vec<Request>,
    /// Indexes where an independent script begins (every index for
    /// stateless workloads; each session's open for `session-patch`).
    pub script_starts: Vec<usize>,
}

impl Workload {
    pub fn start_for(&self, conn: usize, conns: usize) -> usize {
        self.script_starts[conn * self.script_starts.len() / conns]
    }
}

pub const WORKLOADS: [&str; 4] = [
    "validate-stream",
    "validate-churn",
    "page-render",
    "session-patch",
];

/// The three groups of layers a request can exercise, each with the
/// workload whose pool stands in for it on workloads that do not.
pub const GROUPS: [(&str, &str); 3] = [
    ("validate", "validate-stream"),
    ("page", "page-render"),
    ("session", "session-patch"),
];

impl Input {
    /// Index into [`GROUPS`] of the layers this request exercises.
    pub fn group(&self) -> usize {
        match self {
            Input::Validate { .. } => 0,
            Input::OrderPage { .. } | Input::DirectoryPage { .. } => 1,
            Input::Open { .. } | Input::Patch { .. } | Input::Get | Input::Delete => 2,
        }
    }
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "validate-stream" => validate_stream(seed),
        "validate-churn" => validate_churn(seed),
        "page-render" => page_render(seed),
        "session-patch" => session_patch(seed),
        _ => return None,
    })
}

// --- documents ----------------------------------------------------------

const FIRST: &[&str] = &[
    "Alice", "Robert", "Carol", "David", "Erin", "Frank", "Grace",
];
const LAST: &[&str] = &[
    "Smith", "Jones", "Miller", "Nguyen", "Garcia", "Kim", "Okafor",
];
const STREETS: &[&str] = &["Maple Street", "Oak Avenue", "Pine Road", "Elm Way"];
const CITIES: &[&str] = &["Mill Valley", "Old Town", "Springfield", "Riverside"];
const STATES: &[&str] = &["CA", "PA", "TX", "WA", "OR", "NY"];
const PRODUCTS: &[&str] = &[
    "Lawnmower",
    "Baby Monitor",
    "Rake &amp; Hoe",
    "Sprinkler",
    "Hose",
];

/// A fault the purchase-order generator can inject, with the error kind
/// a schema-correct validator must report for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoFault {
    /// `quantity` at or over the `maxExclusive` of 100.
    QuantityOverMax,
    /// `quantity` of 0 (not a `positiveInteger`).
    QuantityZero,
    /// `partNum` outside the `SKU` pattern.
    BadSku,
    /// A `zip` that is not a decimal.
    BadZip,
    /// `quantity` before `productName` inside an item.
    SwappedItemFields,
    /// No `billTo` between `shipTo` and `comment`.
    MissingBillTo,
    /// An `orderDate` that is not an `xsd:date`.
    BadOrderDate,
}

impl PoFault {
    pub const ALL: [PoFault; 7] = [
        PoFault::QuantityOverMax,
        PoFault::QuantityZero,
        PoFault::BadSku,
        PoFault::BadZip,
        PoFault::SwappedItemFields,
        PoFault::MissingBillTo,
        PoFault::BadOrderDate,
    ];

    pub fn expected_kind(self) -> &'static str {
        match self {
            PoFault::QuantityOverMax | PoFault::QuantityZero | PoFault::BadZip => "SimpleType",
            PoFault::BadSku | PoFault::BadOrderDate => "AttributeValue",
            PoFault::SwappedItemFields | PoFault::MissingBillTo => "UnexpectedChild",
        }
    }
}

/// A fault the WML generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WmlFault {
    /// `align` outside its enumeration.
    BadAlign,
    /// An inline `<b>` directly inside a `card`.
    InlineInCard,
    /// A `select` without its required `name`.
    SelectWithoutName,
}

impl WmlFault {
    pub const ALL: [WmlFault; 3] = [
        WmlFault::BadAlign,
        WmlFault::InlineInCard,
        WmlFault::SelectWithoutName,
    ];

    pub fn expected_kind(self) -> &'static str {
        match self {
            WmlFault::BadAlign => "AttributeValue",
            WmlFault::InlineInCard => "UnexpectedChild",
            WmlFault::SelectWithoutName => "MissingAttribute",
        }
    }
}

fn sku(rng: &mut Rng) -> String {
    format!(
        "{:03}-{}{}",
        rng.below(1000),
        (b'A' + rng.below(26) as u8) as char,
        (b'A' + rng.below(26) as u8) as char
    )
}

fn price(rng: &mut Rng) -> String {
    format!("{}.{:02}", rng.range(1, 500), rng.below(100))
}

fn address(out: &mut String, rng: &mut Rng, tag: &str, bad_zip: bool) {
    let zip = if bad_zip {
        "9O952".to_string()
    } else {
        rng.range(10000, 99999).to_string()
    };
    out.push_str(&format!(
        "<{tag} country=\"US\"><name>{} {}</name><street>{} {}</street><city>{}</city>\
         <state>{}</state><zip>{zip}</zip></{tag}>",
        rng.pick(FIRST),
        rng.pick(LAST),
        rng.range(1, 999),
        rng.pick(STREETS),
        rng.pick(CITIES),
        rng.pick(STATES),
    ));
}

/// One `<item>` element, always valid.
pub fn item_xml(rng: &mut Rng) -> String {
    let mut out = String::with_capacity(160);
    push_item(&mut out, rng, None);
    out
}

fn push_item(out: &mut String, rng: &mut Rng, fault: Option<PoFault>) {
    let part = if fault == Some(PoFault::BadSku) {
        "12-AB".to_string()
    } else {
        sku(rng)
    };
    let quantity = match fault {
        Some(PoFault::QuantityOverMax) => rng.range(100, 200),
        Some(PoFault::QuantityZero) => 0,
        _ => rng.range(1, 100),
    };
    let name = format!("<productName>{}</productName>", rng.pick(PRODUCTS));
    let qty = format!("<quantity>{quantity}</quantity>");
    out.push_str(&format!("<item partNum=\"{part}\">"));
    if fault == Some(PoFault::SwappedItemFields) {
        out.push_str(&qty);
        out.push_str(&name);
    } else {
        out.push_str(&name);
        out.push_str(&qty);
    }
    out.push_str(&format!("<USPrice>{}</USPrice>", price(rng)));
    if rng.below(10) < 3 {
        out.push_str("<comment>Ship with care</comment>");
    }
    out.push_str("</item>");
}

/// A purchase order with `items` lines (no whitespace between elements,
/// so child indexes are element positions). A fault lands in the middle
/// item when it is an item fault.
pub fn purchase_order(rng: &mut Rng, items: usize, fault: Option<PoFault>) -> String {
    let mut out = String::with_capacity(400 + items * 170);
    let date = if fault == Some(PoFault::BadOrderDate) {
        "1999-13-40".to_string()
    } else {
        format!(
            "{}-{:02}-{:02}",
            rng.range(1999, 2004),
            rng.range(1, 13),
            rng.range(1, 29)
        )
    };
    out.push_str(&format!("<purchaseOrder orderDate=\"{date}\">"));
    address(&mut out, rng, "shipTo", false);
    if fault != Some(PoFault::MissingBillTo) {
        address(&mut out, rng, "billTo", fault == Some(PoFault::BadZip));
    }
    out.push_str("<comment>Hurry, my lawn is going wild</comment><items>");
    let faulty_item = items / 2;
    for i in 0..items {
        let item_fault = fault.filter(|_| i == faulty_item);
        push_item(&mut out, rng, item_fault);
    }
    out.push_str("</items></purchaseOrder>");
    out
}

/// A WML deck with about `paragraphs` paragraphs of mixed inline markup.
pub fn wml_deck(rng: &mut Rng, paragraphs: usize, fault: Option<WmlFault>) -> String {
    let mut out = String::with_capacity(200 + paragraphs * 220);
    out.push_str("<wml>");
    let cards = 1 + paragraphs / 8;
    let faulty = paragraphs / 2;
    let mut p = 0;
    for c in 0..cards {
        out.push_str(&format!("<card id=\"c{c}\" title=\"Card {c}\">"));
        let here = if c + 1 == cards {
            paragraphs - p
        } else {
            8.min(paragraphs - p)
        };
        for _ in 0..here {
            let is_faulty = p == faulty;
            if is_faulty && fault == Some(WmlFault::InlineInCard) {
                out.push_str("<b>stray</b>");
            }
            let align = if is_faulty && fault == Some(WmlFault::BadAlign) {
                "middle"
            } else {
                rng.pick(&["left", "center", "right"])
            };
            out.push_str(&format!("<p align=\"{align}\">"));
            for part in 0..rng.range(2, 7) {
                match rng.below(6) {
                    0 => out.push_str(&format!("<b>{}</b>", rng.pick(LAST))),
                    1 => out.push_str(&format!("<em>{}</em>", rng.pick(CITIES))),
                    2 => out.push_str("<br/>"),
                    3 => out.push_str(&format!(
                        "<a href=\"http://example.org/media/{}\">{}</a>",
                        rng.below(10_000),
                        rng.pick(PRODUCTS)
                    )),
                    4 => {
                        let name = if is_faulty && fault == Some(WmlFault::SelectWithoutName) {
                            String::new()
                        } else {
                            format!(" name=\"s{p}x{part}\"")
                        };
                        out.push_str(&format!("<select{name}>"));
                        for o in 0..rng.range(1, 4) {
                            out.push_str(&format!(
                                "<option value=\"v{o}\">{}</option>",
                                rng.pick(FIRST)
                            ));
                        }
                        out.push_str("</select>");
                    }
                    _ => out.push_str(&format!("{} {} ", rng.pick(STREETS), rng.below(100))),
                }
            }
            if is_faulty && fault == Some(WmlFault::SelectWithoutName) {
                out.push_str("<select><option value=\"x\">x</option></select>");
            }
            out.push_str("</p>");
            p += 1;
        }
        out.push_str("</card>");
    }
    out.push_str("</wml>");
    out
}

/// Well-formed until a mismatched end tag near the end.
pub fn malformed(rng: &mut Rng, items: usize) -> String {
    let doc = purchase_order(rng, items, None);
    doc.replace("</items></purchaseOrder>", "</itemz></purchaseOrder>")
}

/// 2000 nested elements: trips the default depth budget of 1024.
pub fn deep_nest() -> String {
    format!("{}{}", "<d>".repeat(2000), "</d>".repeat(2000))
}

fn valid_verdict(schema: &str) -> Expect {
    Expect::Bytes(
        format!("{{\"schema\":\"{schema}\",\"valid\":true,\"resource\":null,\"errors\":[]}}")
            .into_bytes()
            .into(),
    )
}

fn chunk_plan(rng: &mut Rng, len: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = len;
    while left > 0 {
        let n = (rng.range(256, 16 << 10) as usize).min(left);
        sizes.push(n);
        left -= n;
    }
    sizes
}

fn validate_request(
    schema: &'static str,
    doc: String,
    expect: Expect,
    chunks: Option<Vec<usize>>,
) -> Request {
    let path = format!("/v1/validate/{schema}");
    let wire = match chunks {
        Some(sizes) => http::encode_chunked("POST", &path, doc.as_bytes(), &sizes),
        None => http::encode("POST", &path, doc.as_bytes(), false),
    };
    Request {
        wire: Wire::Fixed(wire),
        input: Input::Validate {
            schema,
            doc: doc.into(),
        },
        expect,
    }
}

// --- workloads ----------------------------------------------------------

/// Documents in the `validate-stream` pool.
pub const STREAM_POOL: usize = 600;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Clean,
    Fault,
    Malformed,
    Hostile,
}

fn validate_stream(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 1);
    let n = STREAM_POOL;
    let wml = n / 4;
    let po = n - wml;
    let small = po / 2;
    let large = po * 12 / 100;
    let medium = po - small - large;
    let groups = [
        ("purchase-order", stratified(&mut rng, small, 1, 10)),
        ("purchase-order", log_stratified(&mut rng, medium, 11, 199)),
        ("purchase-order", stratified(&mut rng, large, 200, 1000)),
        ("wml", stratified(&mut rng, wml, 1, 32)),
    ];
    // roles and framing go by position in each size-sorted group, so
    // every size range carries the same share of faults and chunked
    // bodies whatever the seed
    let mut docs: Vec<(&'static str, u64, Role, bool)> = Vec::with_capacity(n);
    for (schema, mut sizes) in groups {
        sizes.sort_unstable();
        let (fault_at, chunk_at) = (rng.below(10) as usize, rng.below(5) as usize);
        for (j, size) in sizes.into_iter().enumerate() {
            let role = if (j + fault_at) % 10 == 0 {
                Role::Fault
            } else {
                Role::Clean
            };
            docs.push((schema, size, role, (j + chunk_at) % 5 == 0));
        }
    }
    // a few malformed documents and three hostile nests, all in place of
    // small clean orders
    let mut small_clean: Vec<usize> = (0..small).filter(|&i| docs[i].2 == Role::Clean).collect();
    rng.shuffle(&mut small_clean);
    for (k, i) in small_clean.into_iter().take(3 + n / 100).enumerate() {
        docs[i].2 = if k < 3 {
            Role::Hostile
        } else {
            Role::Malformed
        };
    }
    let mut faults = rng.below(PoFault::ALL.len() as u64) as usize;
    let mut requests = Vec::with_capacity(n);
    for (schema, size, role, chunked) in docs {
        let k = size as usize;
        let (doc, expect) = match (role, schema) {
            (Role::Hostile, _) => (
                deep_nest(),
                Expect::Refused {
                    status: 422,
                    resource: "DepthExceeded",
                },
            ),
            (Role::Malformed, _) => (
                malformed(&mut rng, k),
                Expect::Invalid {
                    kind: "NotWellFormed",
                },
            ),
            (Role::Fault, "wml") => {
                let fault = WmlFault::ALL[faults % WmlFault::ALL.len()];
                faults += 1;
                (
                    wml_deck(&mut rng, k, Some(fault)),
                    Expect::Invalid {
                        kind: fault.expected_kind(),
                    },
                )
            }
            (Role::Fault, _) => {
                let fault = PoFault::ALL[faults % PoFault::ALL.len()];
                faults += 1;
                (
                    purchase_order(&mut rng, k, Some(fault)),
                    Expect::Invalid {
                        kind: fault.expected_kind(),
                    },
                )
            }
            (Role::Clean, "wml") => (wml_deck(&mut rng, k, None), valid_verdict("wml")),
            (Role::Clean, _) => (
                purchase_order(&mut rng, k, None),
                valid_verdict("purchase-order"),
            ),
        };
        let chunks = chunked.then(|| chunk_plan(&mut rng, doc.len()));
        requests.push(validate_request(schema, doc, expect, chunks));
    }
    // the pool was built in size order; send it in a seeded order
    rng.shuffle(&mut requests);
    Workload {
        name: "validate-stream",
        conns: 2,
        fresh_connections: false,
        script_starts: (0..requests.len()).collect(),
        requests,
    }
}

fn log_stratified(rng: &mut Rng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    let mut out: Vec<u64> = (0..n)
        .map(|j| {
            let at = (j as f64 + rng.unit()) / n as f64;
            ((a + at * (b - a)).exp() as u64).clamp(lo, hi)
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

fn validate_churn(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 2);
    let requests = (0..200)
        .map(|j| {
            let doc = purchase_order(&mut rng, 1 + j % 3, None);
            let path = "/v1/validate/purchase-order";
            Request {
                wire: Wire::Fixed(http::encode("POST", path, doc.as_bytes(), true)),
                input: Input::Validate {
                    schema: "purchase-order",
                    doc: doc.into(),
                },
                expect: valid_verdict("purchase-order"),
            }
        })
        .collect::<Vec<_>>();
    Workload {
        name: "validate-churn",
        conns: 1,
        fresh_connections: true,
        script_starts: (0..requests.len()).collect(),
        requests,
    }
}

/// Page requests with their string-backend renderings as the expected
/// bodies (`webgen`'s unchecked JSP-style renderers: a different code
/// path from the compiled P-XML plans the server runs).
fn page_render(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 3);
    let orders = 320;
    let mut inputs: Vec<Input> = stratified(&mut rng, orders, 1, 200)
        .into_iter()
        .map(|count| Input::OrderPage {
            seed: rng.below(1 << 32),
            count: count as usize,
        })
        .collect();
    // archive generation grows as breadth^depth: every shape appears
    // equally often, so the pool's total work does not depend on the seed
    for _ in 0..3 {
        for breadth in 2..=10 {
            for depth in 1..=3 {
                inputs.push(Input::DirectoryPage {
                    seed: rng.below(1 << 32),
                    breadth,
                    depth,
                });
            }
        }
    }
    rng.shuffle(&mut inputs);
    let requests: Vec<Request> = inputs
        .into_iter()
        .map(|input| {
            let (path, expected) = match &input {
                Input::OrderPage { seed, count } => (
                    format!("/v1/page/orders/{seed}/{count}"),
                    webgen::render_order_string(&webgen::generate_order(*seed, *count)),
                ),
                Input::DirectoryPage {
                    seed,
                    breadth,
                    depth,
                } => {
                    let archive = webgen::MediaArchive::generate(*seed, *breadth, *depth);
                    let data = webgen::DirectoryPageData::from_media(&archive.root());
                    (
                        format!("/v1/page/directory/{seed}/{breadth}/{depth}"),
                        webgen::render_string(&data),
                    )
                }
                _ => unreachable!("page pool holds page inputs only"),
            };
            Request {
                wire: Wire::Fixed(http::encode("GET", &path, b"", false)),
                input,
                expect: Expect::Bytes(expected.into_bytes().into()),
            }
        })
        .collect();
    Workload {
        name: "page-render",
        conns: 2,
        fresh_connections: false,
        script_starts: (0..requests.len()).collect(),
        requests,
    }
}

/// Sessions in the `session-patch` pool.
pub const SESSION_SCRIPTS: usize = 24;

/// Path of the `items` element: document → `purchaseOrder` (0) →
/// `items` (3, after `shipTo`, `billTo`, `comment`).
const ITEMS: [usize; 2] = [0, 3];

fn item_path(i: usize, rest: &[usize]) -> Vec<usize> {
    let mut at = ITEMS.to_vec();
    at.push(i);
    at.extend_from_slice(rest);
    at
}

fn json_path(at: &[usize]) -> String {
    let parts: Vec<String> = at.iter().map(usize::to_string).collect();
    format!("[{}]", parts.join(","))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One patch, its wire form, and whether a correct validator accepts
/// it. `items` is the current item count, updated for applied patches.
pub fn make_patch(rng: &mut Rng, items: &mut usize, reject: bool) -> (DomPatch, String, bool) {
    let n = *items;
    let i = rng.below(n as u64) as usize;
    let set_text = |at: Vec<usize>, text: String| {
        let json = format!(
            "{{\"op\":\"set_text\",\"path\":{},\"text\":{}}}",
            json_path(&at),
            json_string(&text)
        );
        (DomPatch::SetText { at, text }, json)
    };
    let set_attr = |at: Vec<usize>, name: &str, value: String| {
        let json = format!(
            "{{\"op\":\"set_attr\",\"path\":{},\"name\":{},\"value\":{}}}",
            json_path(&at),
            json_string(name),
            json_string(&value)
        );
        (
            DomPatch::SetAttr {
                at,
                name: name.into(),
                value,
            },
            json,
        )
    };
    let append = |xml: String| {
        let json = format!(
            "{{\"op\":\"append_child\",\"path\":{},\"node\":{{\"kind\":\"element\",\"xml\":{}}}}}",
            json_path(&ITEMS),
            json_string(&xml)
        );
        (
            DomPatch::AppendChild {
                at: ITEMS.to_vec(),
                child: NewNode::Element { xml },
            },
            json,
        )
    };
    let remove = |at: Vec<usize>, index: usize| {
        let json = format!(
            "{{\"op\":\"remove_child\",\"path\":{},\"index\":{index}}}",
            json_path(&at)
        );
        (DomPatch::RemoveChild { at, index }, json)
    };
    if reject {
        let (patch, json) = match rng.below(4) {
            0 => set_text(item_path(i, &[1, 0]), rng.range(100, 1000).to_string()),
            1 => set_attr(
                item_path(i, &[]),
                "partNum",
                format!("{}", rng.range(1000, 9999)),
            ),
            2 => append(format!(
                "<item partNum=\"{}\"><productName>Rake</productName><USPrice>{}</USPrice></item>",
                sku(rng),
                price(rng)
            )),
            _ => remove(vec![0], 0),
        };
        return (patch, json, false);
    }
    let (patch, json) = match rng.below(20) {
        0..=6 => set_text(item_path(i, &[1, 0]), rng.range(1, 100).to_string()),
        7..=8 => set_text(
            item_path(i, &[0, 0]),
            rng.pick(PRODUCTS).replace("&amp;", "&"),
        ),
        9..=10 => set_text(item_path(i, &[2, 0]), price(rng)),
        11..=13 => set_attr(item_path(i, &[]), "partNum", sku(rng)),
        14..=16 => {
            *items += 1;
            append(item_xml(rng))
        }
        _ => {
            *items -= 1;
            remove(ITEMS.to_vec(), i)
        }
    };
    (patch, json, true)
}

/// Builds the session scripts and, for each, the document the server
/// must hold at the end: the opening document with the accepted patches
/// replayed through `validator::apply_unchecked` — a plain tree edit
/// that runs no validation, unlike the incremental path under test.
fn session_patch(seed: u64) -> Workload {
    let mut rng = Rng::new(seed, 4);
    let sizes = stratified(&mut rng, SESSION_SCRIPTS, 100, 500);
    let mut requests = Vec::new();
    let mut script_starts = Vec::new();
    for size in sizes {
        script_starts.push(requests.len());
        let doc = purchase_order(&mut rng, size as usize, None);
        let mut replay = xmlparse::parse_document(&doc).expect("generated orders are well-formed");
        requests.push(Request {
            wire: Wire::Fixed(http::encode(
                "POST",
                "/v1/session/purchase-order",
                doc.as_bytes(),
                false,
            )),
            input: Input::Open { doc: doc.into() },
            expect: Expect::SessionOpen,
        });
        let patches = rng.range(48, 53) as usize;
        let rejected = patches.div_ceil(10);
        let mut reject_at: Vec<bool> = (0..patches).map(|k| k < rejected).collect();
        rng.shuffle(&mut reject_at);
        let mut items = size as usize;
        for reject in reject_at {
            let (patch, json, applied) = make_patch(&mut rng, &mut items, reject);
            if applied {
                validator::apply_unchecked(&mut replay, &patch)
                    .expect("generated patches address existing nodes");
            }
            requests.push(Request {
                wire: Wire::InSession {
                    method: "POST",
                    suffix: "/patch",
                    body: json.clone().into_bytes(),
                },
                input: Input::Patch { json, patch },
                expect: Expect::Patch { applied },
            });
        }
        let final_doc = dom::serialize(&replay, replay.document_node())
            .expect("the replayed document serializes");
        requests.push(Request {
            wire: Wire::InSession {
                method: "GET",
                suffix: "",
                body: Vec::new(),
            },
            input: Input::Get,
            expect: Expect::Bytes(final_doc.into_bytes().into()),
        });
        requests.push(Request {
            wire: Wire::InSession {
                method: "DELETE",
                suffix: "",
                body: Vec::new(),
            },
            input: Input::Delete,
            expect: Expect::Closed,
        });
    }
    Workload {
        name: "session-patch",
        conns: 2,
        fresh_connections: false,
        requests,
        script_starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn errors(schema: &str, doc: &str) -> Vec<validator::ValidationError> {
        thread_local! {
            static REG: webgen::SchemaRegistry = webgen::SchemaRegistry::with_corpus().unwrap();
        }
        REG.with(|r| r.validate_streaming(schema, doc).unwrap())
    }

    #[test]
    fn clean_documents_are_valid() {
        let mut rng = Rng::new(5, 0);
        for items in [0, 1, 7, 250] {
            let doc = purchase_order(&mut rng, items, None);
            assert!(errors("purchase-order", &doc).is_empty(), "{doc}");
        }
        for p in [1, 9, 30] {
            let doc = wml_deck(&mut rng, p, None);
            assert!(errors("wml", &doc).is_empty(), "{doc}");
        }
    }

    #[test]
    fn each_fault_changes_the_document_and_names_its_kind() {
        for fault in PoFault::ALL {
            let clean = purchase_order(&mut Rng::new(9, 0), 5, None);
            let bad = purchase_order(&mut Rng::new(9, 0), 5, Some(fault));
            assert_ne!(clean, bad, "{fault:?} left the document unchanged");
            let errs = errors("purchase-order", &bad);
            assert!(
                errs.iter().any(|e| e.kind.label() == fault.expected_kind()),
                "{fault:?}: expected {}, got {errs:?}",
                fault.expected_kind()
            );
        }
        for fault in WmlFault::ALL {
            let clean = wml_deck(&mut Rng::new(9, 0), 6, None);
            let bad = wml_deck(&mut Rng::new(9, 0), 6, Some(fault));
            assert_ne!(clean, bad, "{fault:?} left the document unchanged");
            let errs = errors("wml", &bad);
            assert!(
                errs.iter().any(|e| e.kind.label() == fault.expected_kind()),
                "{fault:?}: expected {}, got {errs:?}",
                fault.expected_kind()
            );
        }
    }

    #[test]
    fn stream_pool_mix_matches_its_description() {
        let w = build("validate-stream", 1).unwrap();
        assert_eq!(w.requests.len(), STREAM_POOL);
        let count = |f: &dyn Fn(&Request) -> bool| w.requests.iter().filter(|r| f(r)).count();
        let invalid = count(&|r| matches!(r.expect, Expect::Invalid { .. }));
        let refused = count(&|r| matches!(r.expect, Expect::Refused { .. }));
        let wml = count(&|r| matches!(r.input, Input::Validate { schema: "wml", .. }));
        let chunked = count(&|r| match &r.wire {
            Wire::Fixed(b) => b.windows(8).any(|w| w == b"chunked\r"),
            _ => false,
        });
        let malformed = count(&|r| {
            matches!(
                r.expect,
                Expect::Invalid {
                    kind: "NotWellFormed"
                }
            )
        });
        assert_eq!(refused, 3);
        assert_eq!(malformed, STREAM_POOL / 100);
        // per-group shares round by group, so totals may be off by a few
        let near = |got: usize, want: usize| got.abs_diff(want) <= 3;
        assert!(near(invalid - malformed, STREAM_POOL / 10), "{invalid}");
        assert_eq!(wml, STREAM_POOL / 4);
        assert!(near(chunked, STREAM_POOL / 5), "{chunked}");
    }

    #[test]
    fn same_seed_same_inputs() {
        for name in WORKLOADS {
            let a = build(name, 3).unwrap();
            let b = build(name, 3).unwrap();
            let c = build(name, 4).unwrap();
            let wire = |w: &Workload| -> Vec<Vec<u8>> {
                w.requests
                    .iter()
                    .map(|r| match &r.wire {
                        Wire::Fixed(b) => b.clone(),
                        Wire::InSession { body, .. } => body.clone(),
                    })
                    .collect()
            };
            assert_eq!(wire(&a), wire(&b), "{name}");
            assert_ne!(wire(&a), wire(&c), "{name}");
        }
    }

    #[test]
    fn patch_expectations_hold_for_the_incremental_validator() {
        let reg = webgen::SchemaRegistry::with_corpus().unwrap();
        let w = build("session-patch", 2).unwrap();
        let mut session = None;
        let (mut applied, mut rejected) = (0, 0);
        for r in &w.requests {
            match (&r.input, &r.expect) {
                (Input::Open { doc }, _) => {
                    session = Some(
                        reg.open_session("purchase-order", doc, limits::Limits::default())
                            .unwrap(),
                    )
                }
                (Input::Patch { patch, .. }, Expect::Patch { applied: want }) => {
                    let got = session.as_mut().unwrap().apply(patch).is_ok();
                    assert_eq!(got, *want, "{patch:?}");
                    if got {
                        applied += 1
                    } else {
                        rejected += 1
                    }
                }
                (Input::Get, Expect::Bytes(want)) => {
                    assert_eq!(session.as_ref().unwrap().to_xml().as_bytes(), &want[..]);
                }
                _ => {}
            }
        }
        let ratio = rejected as f64 / (applied + rejected) as f64;
        assert!((0.09..0.12).contains(&ratio), "{ratio}");
    }
}
