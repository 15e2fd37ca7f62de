//! Smoke test of the benchmark at tiny size: every workload, untraced and
//! traced, must pass its exactness oracle and emit every metric that
//! `BENCHMARK.json` names, with the unit named there.
//!
//! ```text
//! cargo test --manifest-path benchmark/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

/// A JSON value, parsed just far enough for this test.
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {:?} at byte {}", c as char, self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    m.insert(k, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    self.i += if self.s[self.i] == b'\\' { 2 } else { 1 };
                }
                self.i += 1;
                Json::Str(String::from_utf8_lossy(&self.s[start..self.i - 1]).into_owned())
            }
            b't' | b'f' | b'n' => {
                let word = [&b"true"[..], b"false", b"null"]
                    .into_iter()
                    .find(|w| self.s[self.i..].starts_with(w))
                    .expect("a JSON literal");
                self.i += word.len();
                match word[0] {
                    b't' => Json::Bool(true),
                    b'f' => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ASCII number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let Json::Arr(list) = doc.get(section) else { panic!("{section} is not a list") };
    list.iter()
        .map(|m| (m.get("name").str().to_string(), m.get("unit").str().to_string()))
        .collect()
}

/// Runs one workload at tiny size and checks its result line.
fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sofa-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("oracle: ") && l.contains(" 0 inexact, 0 failed")),
        "{workload}: the oracle did not report a clean check:\n{stdout}"
    );
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    assert!(matches!(result.get("correct"), Json::Bool(true)));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);

    let Json::Obj(metrics) = result.get("metrics") else { panic!("metrics is an object") };
    let want = declared(if trace { "per_layer" } else { "end_to_end" });
    let names: Vec<&String> = metrics.keys().collect();
    let mut want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    want_names.sort();
    assert_eq!(names, want_names, "{workload}: emitted metrics differ from BENCHMARK.json");
    for (name, unit) in &want {
        let m = &metrics[name];
        assert_eq!(m.get("unit").str(), unit, "{workload}: unit of {name}");
        assert!(m.get("value").num().is_finite(), "{workload}: value of {name}");
    }
    if trace {
        assert!(stdout.lines().any(|l| l.starts_with("trace: ")), "{workload}: no span file");
    }
}

#[test]
fn hf256_single() {
    smoke("hf256-single", false);
    smoke("hf256-single", true);
}

#[test]
fn lc256_ingest() {
    smoke("lc256-ingest", false);
    smoke("lc256-ingest", true);
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sofa-benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
