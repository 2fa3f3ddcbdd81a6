//! Tests of the benchmark's own arithmetic: order statistics, the tail
//! percentile rule, the geomean, self time over nested spans, the emitted
//! JSON, and argument parsing.

use flowbench::cli;
use flowbench::json::Value;
use flowbench::report::{metrics_file, result_line, Metric};
use flowbench::spans::{self, Span};
use flowbench::stats::{geomean, quartiles, tail_percentile, Summary};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(data, n=4)`.
    let cases: [(Vec<f64>, [f64; 3]); 4] = [
        ((1..=10).map(f64::from).collect(), [2.75, 5.5, 8.25]),
        (vec![3.0, 1.0], [0.5, 2.0, 3.5]),
        (vec![5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (vec![1.5, 2.5, 10.0, 7.25], [1.75, 4.875, 9.3125]),
    ];
    for (data, want) in cases {
        let got = quartiles(&sorted(data.clone()));
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{data:?}: got {got:?}, want {want:?}");
        }
    }
    assert_eq!(quartiles(&[4.0]), [4.0; 3]);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    let data = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(tail_percentile(&data(10)), None);
    // Eleven samples: only p1..p9 have rank 1 (ten beyond).
    assert_eq!(tail_percentile(&data(11)), Some((9, 1.0)));
    assert_eq!(tail_percentile(&data(20)), Some((50, 10.0)));
    assert_eq!(tail_percentile(&data(100)), Some((90, 90.0)));
    assert_eq!(tail_percentile(&data(1000)), Some((99, 990.0)));
    for n in 11..300 {
        let d = data(n);
        let (p, v) = tail_percentile(&d).expect("n > 10");
        let beyond = d.iter().filter(|&&x| x > v).count();
        assert!(beyond >= 10, "n={n}: p{p} leaves {beyond}");
        if p < 99 {
            // One percentile higher would leave fewer than ten.
            let rank = ((p as usize + 1) * n).div_ceil(100);
            assert!(n - rank < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }
}

#[test]
fn summary_reports_median_quartiles_and_count() {
    let s = Summary::of(&[9.0, 1.0, 5.0]).expect("samples");
    assert_eq!(s.n, 3);
    assert!(close(s.median, 5.0));
    assert!(close(s.q1, 1.0) && close(s.q3, 9.0));
    assert_eq!(s.tail, None);
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn geomean_of_positive_values() {
    assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
    assert!(close(geomean(&[1.0, 10.0, 100.0]).unwrap(), 10.0));
    assert!(close(geomean(&[7.5]).unwrap(), 7.5));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, -2.0]), None);
}

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start,
        end,
        parent,
        derived: false,
    }
}

#[test]
fn self_time_subtracts_the_children_cover() {
    let spans = vec![
        span("kernel:k", 0.0, 10.0, None),          // 0
        span("iteration:1", 1.0, 9.0, Some(0)),     // 1
        span("lutmap.map", 1.0, 3.0, Some(1)),      // 2
        span("place.solve", 4.0, 8.0, Some(1)),     // 3
        span("slack.match", 5.0, 7.0, Some(3)),     // 4 (nested twice)
        span("penalty.compute", 2.0, 5.0, Some(1)), // 5 overlaps 2 and 3
        span("report.measure", 9.0, 9.5, Some(0)),  // 6
    ];
    let t = spans::self_times(&spans);
    // kernel: 10 − (8 + 0.5).
    assert!(close(t[0], 1.5));
    // iteration: children cover [1, 8] once despite overlaps → 8 − 7.
    assert!(close(t[1], 1.0));
    assert!(close(t[2], 2.0));
    assert!(close(t[3], 2.0));
    assert!(close(t[4], 2.0));
    assert!(close(t[5], 3.0));
    assert!(close(t[6], 0.5));
    // Overlapping siblings each keep their own self time, so the total
    // exceeds the root's 10 s by the 2 s of overlap.
    assert!(close(t.iter().sum::<f64>(), 12.0));

    assert_eq!(spans[1].layer(), None);
    assert_eq!(spans[3].layer(), Some("place"));
}

#[test]
fn recorder_nests_and_derived_spans_count_as_children() {
    let mut rec = spans::Recorder::default();
    let root = rec.open("kernel:k");
    let (_, leaf) = rec.time("slack.match", || std::hint::black_box(1 + 1));
    rec.derived(leaf, "sim.run", std::time::Duration::ZERO);
    let inner = rec.open("iteration:1");
    let _dangling = rec.open("lutmap.map");
    rec.close(inner); // closes the dangling span too
    rec.close(root);
    let s = rec.spans();
    assert_eq!(s.len(), 5);
    assert_eq!(s[1].parent, Some(0));
    assert_eq!(s[2].parent, Some(1));
    assert!(s[2].derived);
    assert_eq!(s[4].parent, Some(3));
    assert!(s.iter().all(|x| x.end >= x.start));
}

#[test]
fn folded_stacks_aggregate_self_time_in_microseconds() {
    let spans = vec![
        span("workload:w", 0.0, 3.0, None),
        span("kernel:a", 0.0, 1.0, Some(0)),
        span("lutmap.map", 0.0, 0.5, Some(1)),
        span("kernel:a", 1.0, 3.0, Some(0)),
        span("lutmap.map", 1.0, 2.0, Some(3)),
    ];
    let folded = spans::folded(&spans);
    let lines: Vec<&str> = folded.lines().collect();
    assert_eq!(
        lines,
        [
            "workload:w 0",
            "workload:w;kernel:a 1500000",
            "workload:w;kernel:a;lutmap.map 1500000",
        ]
    );
}

// A minimal JSON reader, enough to read back what the benchmark writes.
struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                        }
                        other => other as char,
                    });
                }
                _ => out.push(c as char),
            }
        }
    }

    fn value(&mut self) -> Value {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut pairs = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Value::Obj(pairs);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    pairs.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Value::Obj(pairs);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Value::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Value::Arr(items);
                    }
                }
            }
            b'"' => Value::Str(self.string()),
            b't' => {
                self.i += 4;
                Value::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Value::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Value::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Value::Num(text.parse().unwrap())
            }
        }
    }
}

fn parse(text: &str) -> Value {
    let mut r = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let v = r.value();
    r.ws();
    assert_eq!(r.i, text.len(), "trailing input");
    v
}

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
        _ => panic!("not an object looking up {key}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn metrics_file_parses_back_with_every_digit() {
    let wall: Vec<f64> = (0..12)
        .map(|i| 10.0 + 0.123_456_789_012_3 * i as f64)
        .collect();
    let metrics = vec![
        Metric::new("wall_s", "s", wall.clone()),
        Metric::new("luts", "count", vec![2070.0]),
    ];
    let meta = Value::obj([
        ("workload", Value::from("iterative \"quoted\"\n")),
        ("seed", Value::from(7u64)),
    ]);
    let text = metrics_file(meta, &metrics).to_string();
    let v = parse(&text);
    assert_eq!(
        get(get(&v, "meta"), "workload"),
        &Value::Str("iterative \"quoted\"\n".into())
    );
    assert_eq!(num(get(get(&v, "meta"), "seed")), 7.0);
    let w = get(get(&v, "metrics"), "wall_s");
    let s = Summary::of(&wall).unwrap();
    assert_eq!(num(get(w, "median")), s.median);
    assert_eq!(num(get(w, "q1")), s.q1);
    assert_eq!(num(get(w, "q3")), s.q3);
    assert_eq!(num(get(w, "n")), 12.0);
    assert_eq!(get(w, "unit"), &Value::Str("s".into()));
    let (p, pv) = s.tail.unwrap();
    assert_eq!(num(get(get(w, "tail"), "percentile")), p as f64);
    assert_eq!(num(get(get(w, "tail"), "value")), pv);
    match get(w, "samples") {
        Value::Arr(xs) => {
            let back: Vec<f64> = xs.iter().map(num).collect();
            assert_eq!(back, wall, "samples must round-trip exactly");
        }
        other => panic!("samples: {other:?}"),
    }
    assert_eq!(get(get(get(&v, "metrics"), "luts"), "tail"), &Value::Null);

    let line = result_line(true, 9, 0, &metrics).to_string();
    assert!(!line.contains('\n'));
    let r = parse(&line);
    assert_eq!(get(&r, "correct"), &Value::Bool(true));
    assert_eq!(num(get(&r, "attempted")), 9.0);
    assert_eq!(num(get(&r, "failed")), 0.0);
    let m = get(&r, "metrics");
    assert_eq!(num(get(get(m, "wall_s"), "value")), s.median);
    assert_eq!(num(get(get(m, "luts"), "value")), 2070.0);
    assert_eq!(get(get(m, "luts"), "unit"), &Value::Str("count".into()));
}

#[test]
fn cli_rejects_malformed_and_unknown_arguments() {
    let names = ["iterative", "baseline", "long-trip"];
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = cli::parse(
        &args("--workload long-trip --seed 3 --seconds 20 --trace 1"),
        &names,
    )
    .unwrap();
    assert_eq!(
        ok,
        cli::Args {
            workload: "long-trip".into(),
            seed: 3,
            seconds: 20,
            trace: true,
        }
    );
    let defaults = cli::parse(&args("--seed 0 --workload baseline"), &names).unwrap();
    assert_eq!((defaults.seconds, defaults.trace), (10, false));
    for bad in [
        "",
        "--workload iterative",
        "--seed 1",
        "--workload nope --seed 1",
        "--workload iterative --seed abc",
        "--workload iterative --seed -1",
        "--workload iterative --seed 1 --seconds 0",
        "--workload iterative --seed 1 --seconds 2.5",
        "--workload iterative --seed 1 --trace 2",
        "--workload iterative --seed 1 --jobs 4",
        "--workload iterative --seed 1 --seed 2",
        "--workload iterative --seed",
        "--workload=iterative --seed 1",
    ] {
        assert!(cli::parse(&args(bad), &names).is_err(), "accepted `{bad}`");
    }
}
