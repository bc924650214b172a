//! Holds the benchmark to `BENCHMARK.json`: the metric catalog lists
//! exactly the metrics and units the file names, every workload the file
//! names runs, a run emits exactly the metrics of its mode with their
//! units, its result line has the agreed shape, and two runs of the same
//! size agree exactly on every count.

use promo_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use promo_benchmark::{run, Options, Size, Workload, DEFAULT_SEED};
use std::sync::Mutex;

/// The runs below read a process-wide heap peak, so no other test in
/// this binary may allocate while they time a compile.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn catalog_matches_benchmark_json() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let spec = parse(include_str!("../../BENCHMARK.json"));
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .items()
            .iter()
            .map(|m| (m.get("name").text(), m.get("unit").text()))
            .collect()
    };
    let catalog = |defs: &[MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalog(END_TO_END));
    assert_eq!(listed("per_layer"), catalog(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").text())
        .collect();
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, known);
}

#[test]
fn every_workload_emits_its_metrics_and_repeats_its_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for workload in Workload::ALL {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let options = Options {
                workload,
                seed: DEFAULT_SEED,
                trace,
                size: Size::smoke(),
            };
            let label = format!("{} trace {trace}", workload.name());
            let first = run(&options).unwrap_or_else(|e| panic!("{label}: {e}"));
            let second = run(&options).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(first.correct(), "{label}: {:?}", first.failures);
            let emitted: Vec<(&str, &str)> =
                first.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(emitted, expected, "{label}: emitted metrics");
            for def in defs.iter().filter(|d| d.exact) {
                assert_eq!(
                    first.metric(def.name),
                    second.metric(def.name),
                    "{label}: {} differs between two identical runs",
                    def.name
                );
            }

            let line = parse(&first.result_line());
            let keys: Vec<&str> = match &line {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("{label}: result line is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), &Json::Bool(true));
            for def in defs {
                let m = line.get("metrics").get(def.name);
                assert_eq!(m.get("unit").text(), def.unit, "{label}");
                assert!(matches!(m.get("value"), Json::Num(v) if v.is_finite()));
            }
        }
    }
}

/// Just enough JSON for `BENCHMARK.json` and the result line, which
/// contain no string escapes.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn text(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => panic!("{other:?} is not a string"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.i, p.s.len(), "trailing characters after the JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn eat(&mut self, c: u8) {
        assert_eq!(
            self.peek(),
            c,
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                let mut fields = Vec::new();
                self.list(b'{', b'}', |p| {
                    let key = p.string();
                    p.eat(b':');
                    fields.push((key, p.value()));
                });
                Json::Obj(fields)
            }
            b'[' => {
                let mut items = Vec::new();
                self.list(b'[', b']', |p| items.push(p.value()));
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || b"+-.".contains(c))
                {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("ASCII") {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    "null" => Json::Null,
                    number => Json::Num(number.parse().expect("a JSON number")),
                }
            }
        }
    }

    fn list(&mut self, open: u8, close: u8, mut item: impl FnMut(&mut Self)) {
        self.eat(open);
        if self.peek() == close {
            self.i += 1;
            return;
        }
        loop {
            item(self);
            if self.peek() == b',' {
                self.i += 1;
            } else {
                self.eat(close);
                return;
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "string escapes are not expected");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("UTF-8")
    }
}
