//! Reference values for the Figure 9 suite, independent of `rml::execute`.
//!
//! Seven suite programs carry `Program::expected`. The other eleven are
//! pinned in [`PINNED`], and each pin is reproduced by a hand-written Rust
//! computation below that mirrors the program's source line by line.
//! `--selftest` checks every pin against its computation.
//!
//! The computations use the heap machine's integer semantics: 61-bit
//! two's-complement words (the machine tags the low three bits of a
//! 64-bit word) with wrapping `+ - *` and truncating `div`/`mod`. This
//! matters for `msort` and `msort-rf`: their generator
//! `seed * 1103515245` exceeds 2^60, so 61-bit wrapping gives a different
//! list than 64-bit arithmetic would. `rml_core::semantics` computes on
//! full `i64`s and disagrees with the machine on these two programs (see
//! README.md).

use rml::programs::Program;
use rml::RunValue;

/// Pinned `main ()` results for the suite programs without
/// `Program::expected`.
pub const PINNED: &[(&str, i64)] = &[
    ("mandelbrot", 248),
    ("msort", -9704),
    ("msort-rf", -9704),
    ("logic", 24),
    ("ratio", 113_741),
    ("strings", 472),
    ("matrix", 10_362),
    ("tsp", 15_808),
    ("mpuz", 74),
    ("dlx", 88_000),
    ("exceptions", 1_927),
];

/// The value `p`'s `main ()` must produce, from `Program::expected` or
/// from [`PINNED`].
pub fn expected(p: &Program) -> Option<i64> {
    match &p.expected {
        Some(RunValue::Int(n)) => Some(*n),
        Some(_) => None,
        None => PINNED.iter().find(|(n, _)| *n == p.name).map(|(_, v)| *v),
    }
}

/// Recomputes a pinned value by hand-written reference code.
pub fn compute(name: &str) -> Option<i64> {
    Some(match name {
        "mandelbrot" => mandelbrot(),
        "msort" | "msort-rf" => msort(),
        "logic" => logic(),
        "ratio" => ratio(),
        "strings" => strings(),
        "matrix" => matrix(),
        "tsp" => tsp(),
        "mpuz" => mpuz(),
        "dlx" => dlx(),
        "exceptions" => exceptions(),
        _ => return None,
    })
}

/// Truncates to the machine's 61-bit integer word.
fn w(n: i64) -> i64 {
    (n << 3) >> 3
}
fn add(a: i64, b: i64) -> i64 {
    w(a.wrapping_add(b))
}
fn sub(a: i64, b: i64) -> i64 {
    w(a.wrapping_sub(b))
}
fn mul(a: i64, b: i64) -> i64 {
    w(a.wrapping_mul(b))
}
fn div(a: i64, b: i64) -> i64 {
    w(a.wrapping_div(b))
}
fn rem(a: i64, b: i64) -> i64 {
    w(a.wrapping_rem(b))
}

fn mandelbrot() -> i64 {
    fn step(cr: i64, ci: i64, zr: i64, zi: i64, n: i64) -> i64 {
        if n == 0 {
            return 1;
        }
        let zr2 = div(mul(zr, zr), 4096);
        let zi2 = div(mul(zi, zi), 4096);
        if add(zr2, zi2) > 16384 {
            0
        } else {
            let nzr = add(sub(zr2, zi2), cr);
            let nzi = add(div(mul(mul(2, zr), zi), 4096), ci);
            step(cr, ci, nzr, nzi, n - 1)
        }
    }
    let mut acc = 0;
    for y in 0..=29 {
        for x in 0..=29 {
            acc = add(acc, step(x * 256 - 8192, y * 256 - 4096, 0, 0, 30));
        }
    }
    acc
}

/// `sum (take (sort (lcg (42, 400)), 10))` — both merge sorts compute it.
fn msort() -> i64 {
    let mut xs = Vec::new();
    let mut seed = 42;
    for _ in 0..400 {
        xs.push(rem(seed, 1000));
        seed = rem(add(mul(seed, 1_103_515_245), 12345), 2_147_483_647);
    }
    xs.sort_unstable();
    xs.iter().take(10).fold(0, |a, &x| add(a, x))
}

fn logic() -> i64 {
    let f: [&[i64]; 9] = [
        &[1, 2],
        &[-1, 3],
        &[-2, -3],
        &[4, -5],
        &[5, 6],
        &[-6, -4],
        &[7, 8, 9],
        &[-9, 10],
        &[-10, -7],
    ];
    let lit_true = |a: i64, l: i64| {
        if l > 0 {
            rem(div(a, 1 << (l - 1)), 2) == 1
        } else {
            rem(div(a, 1 << (-l - 1)), 2) == 0
        }
    };
    (0..1024)
        .filter(|&a| f.iter().all(|c| c.iter().any(|&l| lit_true(a, l))))
        .count() as i64
}

fn ratio() -> i64 {
    fn gcd(a: i64, b: i64) -> i64 {
        if b == 0 {
            a
        } else {
            gcd(b, rem(a, b))
        }
    }
    let reduce = |n: i64, d: i64| {
        let g = gcd(n.abs(), d.abs());
        (div(n, g), div(d, g))
    };
    let mut r = (0, 1);
    for k in (1..=12).rev() {
        r = reduce(add(mul(r.0, k), r.1), mul(r.1, k));
    }
    add(r.0, r.1)
}

fn strings() -> i64 {
    let build: usize = (1..=120).map(|n: i64| n.to_string().len() + 1).sum();
    (build + "ab".len() * 50) as i64
}

fn matrix() -> i64 {
    let n = 12;
    let mk: Vec<Vec<i64>> = (0..n)
        .map(|i| (0..n).map(|j| rem(mul(i + 1, j + 2), 17)).collect())
        .collect();
    let mut tr = 0;
    for (i, row) in mk.iter().enumerate() {
        let dot = (0..n as usize).fold(0, |a, k| add(a, mul(row[k], mk[k][i])));
        tr = add(tr, dot);
    }
    tr
}

fn tsp() -> i64 {
    let dist = |a: (i64, i64), b: (i64, i64)| {
        add(
            mul(sub(a.0, b.0), sub(a.0, b.0)),
            mul(sub(a.1, b.1), sub(a.1, b.1)),
        )
    };
    let mut cities: Vec<(i64, i64)> = (0..40)
        .map(|i| (rem(i * 37, 100), rem(i * 73, 100)))
        .collect();
    let (mut from, mut acc) = ((0, 0), 0);
    while let Some(&first) = cities.first() {
        let (mut best, mut bestd) = (first, dist(from, first));
        for &c in &cities {
            if dist(from, c) < bestd {
                best = c;
                bestd = dist(from, c);
            }
        }
        cities.retain(|&x| x != best);
        acc = add(acc, dist(from, best));
        from = best;
    }
    acc
}

fn mpuz() -> i64 {
    fn digitsum(n: i64) -> i64 {
        if n == 0 {
            0
        } else {
            add(rem(n, 10), digitsum(div(n, 10)))
        }
    }
    let mut acc = 0;
    for ab in 10..=99 {
        for c in 1..=9 {
            let p = mul(ab, c);
            if (100..1000).contains(&p) && digitsum(p) == c {
                acc += 1;
            }
        }
    }
    acc
}

fn dlx() -> i64 {
    let run_once = |seed: i64| {
        let prog = [(0, seed), (1, 3), (2, 7), (0, 11), (1, 2), (3, 0)];
        let (mut pc, mut acc) = (0usize, 0i64);
        for _ in 0..6 {
            let (op, arg) = prog.get(pc).copied().unwrap_or((3, 0));
            acc = match op {
                0 => add(acc, arg),
                1 => mul(acc, arg),
                2 => sub(acc, arg),
                _ => return acc,
            };
            pc += 1;
        }
        acc
    };
    (1..=2000)
        .rev()
        .fold(0, |acc, n| add(acc, run_once(rem(n, 13))))
}

fn exceptions() -> i64 {
    let probe = |k: i64| (1..=400).find(|&h| rem(h, 97) == k).unwrap_or(0);
    (0..=60).map(probe).fold(0, add)
}
