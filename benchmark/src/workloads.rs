//! The four workloads: seeded program text plus the result each driver
//! must produce, computed here in Rust without the engine.
//!
//! The seed picks the data (class order, clause constants, inputs), never
//! the sizes, so every seed costs about the same to compile and run.

use crate::rng::SplitMix64;
use pgmp_case_studies::Lib;
use std::fmt::Write as _;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OoCalls,
    LoopDispatch,
    ManyForms,
    AdaptiveShift,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OoCalls,
        Workload::LoopDispatch,
        Workload::ManyForms,
        Workload::AdaptiveShift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OoCalls => "oo-calls",
            Workload::LoopDispatch => "loop-dispatch",
            Workload::ManyForms => "many-forms",
            Workload::AdaptiveShift => "adaptive-shift",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. The benchmark always runs `Full`; unit tests tree-walk
/// `Small` programs against the references.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// A generated program: definitions plus one driver call per input
/// phase. Offline workloads have one phase; `adaptive-shift` moves its
/// inputs every [`EPOCHS_PER_PHASE`] epochs.
pub struct Program {
    pub libs: &'static [Lib],
    pub file: &'static str,
    pub defs: Vec<String>,
    pub phases: Vec<Phase>,
}

/// One driver call and the `write`-printed value it must return.
pub struct Phase {
    pub driver: String,
    pub expected: String,
}

/// Epochs each input phase of the adaptive cycle lasts.
pub const EPOCHS_PER_PHASE: usize = 5;

impl Program {
    /// The definitions alone: what the adaptive engine serves.
    pub fn source(&self) -> String {
        self.defs.join("\n")
    }

    /// The definitions followed by the first phase's driver: what the
    /// offline cycle trains on, compiles and runs.
    pub fn offline_text(&self) -> String {
        format!("{}\n{}", self.source(), self.phases[0].driver)
    }

    /// Byte offset in [`Program::offline_text`] where the first tenth of
    /// its forms (rounded up) ends: the region whose profile weights the
    /// recompile shift inverts.
    pub fn shift_end(&self) -> u32 {
        let n = (self.defs.len() + 1).div_ceil(10);
        let bytes: usize = self.defs.iter().take(n).map(|f| f.len() + 1).sum();
        bytes as u32
    }
}

/// Park–Miller minimal standard generator, the one the Scheme drivers run.
fn lehmer(x: i64) -> i64 {
    x * 16807 % 2_147_483_647
}

fn lehmer_seed(rng: &mut SplitMix64) -> i64 {
    rng.range(1, 2_147_483_646)
}

/// The program of `workload` under `seed`.
pub fn program(workload: Workload, seed: u64, size: Size) -> Program {
    let mut rng = SplitMix64::new(seed);
    match workload {
        Workload::OoCalls => oo_calls(&mut rng, size),
        Workload::LoopDispatch => loop_dispatch(&mut rng, size),
        Workload::ManyForms => many_forms(&mut rng, size),
        Workload::AdaptiveShift => adaptive_shift(&mut rng, size),
    }
}

/// A one-phase program whose last form is the driver call.
fn offline(
    libs: &'static [Lib],
    file: &'static str,
    mut forms: Vec<String>,
    expected: String,
) -> Program {
    let driver = forms.pop().expect("a driver form");
    Program {
        libs,
        file,
        defs: forms,
        phases: vec![Phase { driver, expected }],
    }
}

/// §6.2 shapes summed through `method`, plus the Figure 5 parser over a
/// permutation of Figure 8's text. Profile-dependent forms come first so
/// the recompile shift lands on them.
fn oo_calls(rng: &mut SplitMix64, size: Size) -> Program {
    let (area_reps, parse_reps) = match size {
        Size::Full => (15, 15),
        Size::Small => (1, 1),
    };
    // 70/20/10 class mix over 200 objects, in seeded order.
    let mut shapes: Vec<(&str, Vec<i64>)> = Vec::new();
    for _ in 0..140 {
        shapes.push(("Circle", vec![rng.range(1, 5)]));
    }
    for _ in 0..40 {
        shapes.push(("Square", vec![rng.range(1, 4)]));
    }
    for _ in 0..20 {
        shapes.push(("Triangle", vec![rng.range(1, 3), rng.range(1, 3)]));
    }
    rng.shuffle(&mut shapes);
    let area = |(class, f): &(&str, Vec<i64>)| match *class {
        "Circle" => 3 * f[0] * f[0],
        "Square" => f[0] * f[0],
        _ => f[0] * f[1],
    };
    let total_area: i64 = area_reps * shapes.iter().map(area).sum::<i64>();

    // Figure 8's distribution: 55 blanks, 23 + 23 parens, 10 digits.
    let mut text: Vec<char> = " ".repeat(55).chars().collect();
    text.extend(std::iter::repeat_n('(', 23));
    text.extend(std::iter::repeat_n(')', 23));
    text.extend('0'..='9');
    rng.shuffle(&mut text);
    let code = |c: char| match c {
        ' ' => 1,
        '0'..='9' => 2,
        '(' => 3,
        _ => 4,
    };
    let mut checksum: i64 = 0;
    for _ in 0..parse_reps {
        for &c in &text {
            checksum = (checksum * 31 + code(c)) % 1_000_003;
        }
    }

    let shape_list: Vec<String> = shapes
        .iter()
        .map(|(class, f)| {
            let args: Vec<String> = f.iter().map(i64::to_string).collect();
            format!("(new {class} {})", args.join(" "))
        })
        .collect();
    let forms = vec![
        "(define (parse s)
           (case (peek-char-s s)
             [(#\\0 #\\1 #\\2 #\\3 #\\4 #\\5 #\\6 #\\7 #\\8 #\\9) (digit s)]
             [(#\\() (start-paren s)]
             [(#\\)) (end-paren s)]
             [(#\\space #\\tab) (white-space s)]
             [else (other s)]))"
            .to_owned(),
        "(define (run-parser text reps)
           (let outer ([r 0] [acc 0])
             (if (= r reps)
                 acc
                 (let ([s (make-stream (list->vector (string->list text)))])
                   (let loop ([acc acc])
                     (if (stream-done? s)
                         (outer (add1 r) acc)
                         (loop (modulo (+ (* acc 31) (parse s)) 1000003))))))))"
            .to_owned(),
        "(class Square ((length 0))
           (define-method (area this) (sqr (field this length))))"
            .to_owned(),
        "(class Circle ((radius 0))
           (define-method (area this) (* 3 (sqr (field this radius)))))"
            .to_owned(),
        "(class Triangle ((base 0) (height 0))
           (define-method (area this) (* (field this base) (field this height))))"
            .to_owned(),
        "(define (total-area reps)
           (let loop ([r 0] [total 0])
             (if (= r reps)
                 total
                 (loop (add1 r)
                       (fold-left (lambda (acc s) (+ acc (method s area))) total shapes)))))"
            .to_owned(),
        format!("(define shapes (list {}))", shape_list.join(" ")),
        "(define (make-stream chars)
           (let ([s (make-eq-hashtable)])
             (hashtable-set! s 'data chars)
             (hashtable-set! s 'pos 0)
             s))"
        .to_owned(),
        "(define (stream-done? s)
           (>= (hashtable-ref s 'pos 0) (vector-length (hashtable-ref s 'data #f))))"
            .to_owned(),
        "(define (peek-char-s s)
           (vector-ref (hashtable-ref s 'data #f) (hashtable-ref s 'pos 0)))"
            .to_owned(),
        "(define (advance! s) (hashtable-set! s 'pos (add1 (hashtable-ref s 'pos 0))))".to_owned(),
        "(define (white-space s) (advance! s) 1)".to_owned(),
        "(define (digit s) (advance! s) 2)".to_owned(),
        "(define (start-paren s) (advance! s) 3)".to_owned(),
        "(define (end-paren s) (advance! s) 4)".to_owned(),
        "(define (other s) (advance! s) 5)".to_owned(),
        format!(
            "(list (total-area {area_reps}) (run-parser \"{}\" {parse_reps}))",
            text.iter().collect::<String>()
        ),
    ];
    offline(
        &[Lib::ObjectSystem, Lib::Case],
        "oo-calls.scm",
        forms,
        format!("({total_area} {checksum})"),
    )
}

/// `fib` plus a Lehmer-generator loop around a 99%-biased `if-r`.
fn loop_dispatch(rng: &mut SplitMix64, size: Size) -> Program {
    let (fib_n, spins) = match size {
        Size::Full => (17, 20_000),
        Size::Small => (10, 200),
    };
    let residue = rng.range(0, 99);
    let x0 = lehmer_seed(rng);
    let fib = {
        let (mut a, mut b) = (0i64, 1i64);
        for _ in 0..fib_n {
            (a, b) = (b, a + b);
        }
        a
    };
    let mut x = x0;
    let mut hits = 0;
    for _ in 0..spins {
        x = lehmer(x);
        if x % 100 == residue {
            hits += 1;
        }
    }
    let forms = vec![
        format!(
            "(define (spin n x hits)
               (if (= n 0)
                   hits
                   (let ([x (modulo (* x 16807) 2147483647)])
                     (spin (sub1 n) x (if-r (= (modulo x 100) {residue}) (add1 hits) hits)))))"
        ),
        "(define (fib n) (if-r (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))".to_owned(),
        format!("(list (fib {fib_n}) (spin {spins} {x0} 0))"),
    ];
    offline(
        &[Lib::IfR],
        "loop-dispatch.scm",
        forms,
        format!("({fib} {hits})"),
    )
}

/// A classifier definition of `many-forms`, kept for the reference.
enum Classifier {
    /// `case` over three key sets of sizes 2, 2, 3 (else: 0).
    Case([Vec<i64>; 3]),
    /// `(if-r (< x t) 1 2)`.
    IfR(i64),
    /// `exclusive-cond` over `x < a`, `a <= x < b`, `x >= b`.
    Cond(i64, i64),
}

impl Classifier {
    fn apply(&self, x: i64) -> i64 {
        match self {
            Classifier::Case(keys) => keys
                .iter()
                .position(|k| k.contains(&x))
                .map_or(0, |i| i as i64 + 1),
            Classifier::IfR(t) => {
                if x < *t {
                    1
                } else {
                    2
                }
            }
            Classifier::Cond(a, b) => {
                if x < *a {
                    1
                } else if x < *b {
                    2
                } else {
                    3
                }
            }
        }
    }

    fn source(&self, name: &str) -> String {
        let keys = |k: &[i64]| k.iter().map(i64::to_string).collect::<Vec<_>>().join(" ");
        match self {
            Classifier::Case([k1, k2, k3]) => format!(
                "(define ({name} x) (case x [({}) 1] [({}) 2] [({}) 3] [else 0]))",
                keys(k1),
                keys(k2),
                keys(k3)
            ),
            Classifier::IfR(t) => format!("(define ({name} x) (if-r (< x {t}) 1 2))"),
            Classifier::Cond(a, b) => format!(
                "(define ({name} x) (exclusive-cond [(< x {a}) 1] [(and (>= x {a}) (< x {b})) 2] [(>= x {b}) 3]))"
            ),
        }
    }
}

/// `(+ (f0 x) (f1 x) ...)` over `count` classifiers named `prefix<i>`.
fn call_all(prefix: &str, count: usize) -> String {
    let mut out = String::from("(+");
    for i in 0..count {
        let _ = write!(out, " ({prefix}{i} x)");
    }
    out.push(')');
    out
}

/// 300 definitions split 1:1:1 between `case`, `if-r` and
/// `exclusive-cond`, and a driver calling all of them on uniform inputs
/// in 0..10. The hottest arm of every classifier is not its first, so
/// every classifier reorders under the trained profile.
fn many_forms(rng: &mut SplitMix64, size: Size) -> Program {
    let (defs, inputs) = match size {
        Size::Full => (300, 20),
        Size::Small => (12, 5),
    };
    let classifiers: Vec<Classifier> = (0..defs)
        .map(|i| match i % 3 {
            0 => {
                let mut keys: Vec<i64> = (0..10).collect();
                rng.shuffle(&mut keys);
                Classifier::Case([
                    keys[0..2].to_vec(),
                    keys[2..4].to_vec(),
                    keys[4..7].to_vec(),
                ])
            }
            1 => Classifier::IfR(rng.range(1, 4)),
            _ => {
                let a = rng.range(1, 3);
                Classifier::Cond(a, rng.range(a + 1, a + 3))
            }
        })
        .collect();
    let x0 = lehmer_seed(rng);
    let mut x = x0;
    let mut acc = 0;
    for _ in 0..inputs {
        x = lehmer(x);
        acc += classifiers.iter().map(|c| c.apply(x % 10)).sum::<i64>();
    }
    let mut forms: Vec<String> = classifiers
        .iter()
        .enumerate()
        .map(|(i, c)| c.source(&format!("f{i}")))
        .collect();
    forms.push(format!("(define (drive x) {})", call_all("f", defs)));
    forms.push(
        "(define (run-all n x acc)
           (if (= n 0)
               acc
               (let ([x (modulo (* x 16807) 2147483647)])
                 (run-all (sub1 n) x (+ acc (drive (modulo x 10)))))))"
            .to_owned(),
    );
    forms.push(format!("(run-all {inputs} {x0} 0)"));
    offline(
        &[Lib::IfR, Lib::Case],
        "many-forms.scm",
        forms,
        acc.to_string(),
    )
}

/// 40 `case` classifiers whose four clauses take the key pairs (0 1),
/// (2 3), (4 5), (6 7) in seeded order, and one driver per phase whose
/// inputs fall in one of those pairs, moving every phase: each shift moves
/// every classifier's hot clause.
fn adaptive_shift(rng: &mut SplitMix64, size: Size) -> Program {
    let (count, inputs, phases) = match size {
        Size::Full => (40, 800, 40),
        Size::Small => (4, 20, 3),
    };
    let classifiers: Vec<[Vec<i64>; 4]> = (0..count)
        .map(|_| {
            let mut windows = [0, 2, 4, 6];
            rng.shuffle(&mut windows);
            windows.map(|lo| vec![lo, lo + 1])
        })
        .collect();
    // Clause `j` (1-based) returns `x*j + x*x + j*j + x*j*j + j`: a body with
    // enough profile points of its own that moving the inputs moves the
    // profile past the drift threshold (the clause tests share the `case`
    // template's points across all classifiers).
    let classify = |x: i64| -> i64 {
        classifiers
            .iter()
            .filter_map(|keys| keys.iter().position(|k| k.contains(&x)))
            .map(|i| {
                let j = i as i64 + 1;
                x * j + x * x + j * j + x * j * j + j
            })
            .sum()
    };
    let mut forms: Vec<String> = classifiers
        .iter()
        .enumerate()
        .map(|(i, keys)| {
            let arms: Vec<String> = keys
                .iter()
                .enumerate()
                .map(|(j, k)| format!("[({} {}) (+ (* x {j}) (* x x) (* {j} {j}) (- x {j}) (* x {j} {j}) (- {j} x) {j})]", k[0], k[1], j = j + 1))
                .collect();
            format!("(define (k{i} x) (case x {} [else 0]))", arms.join(" "))
        })
        .collect();
    forms.push(format!(
        "(define (classify-all x) {})",
        call_all("k", count)
    ));
    forms.push(
        "(define (drive n x lo acc)
           (if (= n 0)
               acc
               (let ([x (modulo (* x 16807) 2147483647)])
                 (drive (sub1 n) x lo (+ acc (classify-all (+ lo (modulo x 2))))))))"
            .to_owned(),
    );
    let mut lo = -1;
    let phases = (0..phases)
        .map(|_| {
            let previous = lo;
            while lo == previous {
                lo = 2 * rng.range(0, 3);
            }
            let x0 = lehmer_seed(rng);
            let mut x = x0;
            let mut acc = 0;
            for _ in 0..inputs {
                x = lehmer(x);
                acc += classify(lo + x % 2);
            }
            Phase {
                driver: format!("(drive {inputs} {x0} {lo} 0)"),
                expected: acc.to_string(),
            }
        })
        .collect();
    Program {
        libs: &[Lib::Case],
        file: "adaptive-shift.scm",
        defs: forms,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgmp_case_studies::engine_with;

    fn all_texts(seed: u64) -> Vec<String> {
        Workload::ALL
            .into_iter()
            .flat_map(|w| {
                let p = program(w, seed, Size::Full);
                let mut texts = p.defs;
                texts.extend(
                    p.phases
                        .iter()
                        .map(|ph| format!("{} => {}", ph.driver, ph.expected)),
                );
                texts
            })
            .collect()
    }

    #[test]
    fn a_seed_names_byte_identical_inputs() {
        for seed in 1..=3 {
            assert_eq!(all_texts(seed), all_texts(seed));
        }
        assert_ne!(all_texts(1), all_texts(2));
    }

    #[test]
    fn references_equal_tree_walked_results() {
        for seed in 1..=3 {
            for w in Workload::ALL {
                let p = program(w, seed, Size::Small);
                for phase in &p.phases {
                    let mut engine = engine_with(p.libs).expect("libraries load");
                    engine
                        .run_str(&p.source(), p.file)
                        .expect("definitions load");
                    let got = engine
                        .run_str(&phase.driver, "driver.scm")
                        .expect("driver runs");
                    assert_eq!(
                        got.write_string(),
                        phase.expected,
                        "{} seed {seed}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn the_shift_covers_the_first_tenth_of_the_forms() {
        let p = program(Workload::ManyForms, 1, Size::Full);
        let text = p.offline_text();
        let end = p.shift_end() as usize;
        // 303 forms: the first 31 end exactly at the boundary.
        assert!(text[..end].ends_with('\n'));
        assert_eq!(text[..end].matches("(define (f").count(), 31);
    }
}
