//! Host-speed probe. The benchmark's host shares its cores with other
//! tenants, and the speed of numerical code moves by a factor of two to
//! three over seconds to minutes with their load (README.md, "Host and
//! limits").
//! A fixed unit of work, written here and independent of htmpll, is
//! timed next to every rep and set-up; each time is divided by the
//! slowdown the probe read around it. A change to htmpll moves the
//! workload's time and not the probe's, so it shows in full.
//!
//! The unit mixes the kinds of work the library does: ODE stepping
//! with small heap allocations, complex rational sums with
//! transcendental functions, a small complex LU, a radix-2 FFT, and
//! number formatting and parsing.

use std::f64::consts::PI;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::harness::THREADS;

/// Probe units per second over [`THREADS`] threads on the reference
/// host: about the median rate of the 2-vCPU host of README.md. A
/// slowdown of 1 reads times as measured at that rate.
const REF_UNITS_PER_S: f64 = 45_000.0;
/// How long each probe thread runs units.
const PROBE: Duration = Duration::from_millis(40);

type C = (f64, f64);

fn cmul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

fn cdiv(a: C, b: C) -> C {
    let d = b.0 * b.0 + b.1 * b.1;
    ((a.0 * b.0 + a.1 * b.1) / d, (a.1 * b.0 - a.0 * b.1) / d)
}

fn csub(a: C, b: C) -> C {
    (a.0 - b.0, a.1 - b.1)
}

/// RK4 on a damped 4-state system, allocating every stage vector.
fn rk4(steps: usize, x0: f64) -> f64 {
    let deriv = |x: &[f64]| {
        vec![
            -0.1 * x[0] + x[1],
            -x[0] - 0.1 * x[1] + 0.5 * x[2],
            -0.5 * x[1] - 0.2 * x[2] + 0.1 * (0.3 * x[3]).sin(),
            x[0] - 0.05 * x[3],
        ]
    };
    let step = |x: &[f64], k: &[f64], h: f64| -> Vec<f64> {
        x.iter().zip(k).map(|(a, k)| a + h * k).collect()
    };
    let h = 1e-2;
    let mut x = vec![x0, 0.0, 0.0, 0.0];
    for _ in 0..steps {
        let k1 = deriv(&x);
        let k2 = deriv(&step(&x, &k1, 0.5 * h));
        let k3 = deriv(&step(&x, &k2, 0.5 * h));
        let k4 = deriv(&step(&x, &k3, h));
        x = (0..4)
            .map(|i| x[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect();
    }
    x[0]
}

/// A truncated alias sum of a second-order rational function over a
/// frequency grid.
fn alias_sum(points: usize, w0: f64) -> f64 {
    let mut acc = (0.0, 0.0);
    for i in 0..points {
        let w = w0 + i as f64 * 1e-3;
        for k in -6..=6 {
            let s = (0.0, w + f64::from(k) * 6.0);
            let s2 = cmul(s, s);
            let den = (s2.0 + 0.7 * s.0 + 2.0, s2.1 + 0.7 * s.1);
            let z = cdiv((1.0 + (0.1 * w).cos(), (-w).exp()), den);
            acc = (acc.0 + z.0, acc.1 + z.1);
        }
    }
    acc.0 + acc.1
}

/// Solves a diagonally dominant complex system of order `n` by LU with
/// partial pivoting.
fn lu_solve(n: usize, seed: f64) -> f64 {
    let mut a: Vec<Vec<C>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let v = ((i * 7 + j * 3) as f64 + seed).sin();
                    if i == j {
                        (v + n as f64, 0.5)
                    } else {
                        (v, 0.1 * v)
                    }
                })
                .collect()
        })
        .collect();
    let mut b: Vec<C> = (0..n).map(|i| (i as f64 + seed, 0.0)).collect();
    let norm = |z: C| z.0 * z.0 + z.1 * z.1;
    for c in 0..n {
        let p = (c..n)
            .max_by(|&x, &y| norm(a[x][c]).total_cmp(&norm(a[y][c])))
            .unwrap_or(c);
        a.swap(c, p);
        b.swap(c, p);
        for r in c + 1..n {
            let (top, rest) = a.split_at_mut(r);
            let (pivot, row) = (&top[c], &mut rest[0]);
            let f = cdiv(row[c], pivot[c]);
            for (x, &p) in row[c..].iter_mut().zip(&pivot[c..]) {
                *x = csub(*x, cmul(f, p));
            }
            b[r] = csub(b[r], cmul(f, b[c]));
        }
    }
    let mut x = vec![(0.0, 0.0); n];
    for r in (0..n).rev() {
        let s = (r + 1..n).fold(b[r], |s, k| csub(s, cmul(a[r][k], x[k])));
        x[r] = cdiv(s, a[r][r]);
    }
    x[0].0 + x[n - 1].1
}

/// Energy of the in-place radix-2 FFT of a `2^log2n`-point chirp.
fn fft(log2n: u32, phase: f64) -> f64 {
    let n = 1usize << log2n;
    let mut v: Vec<C> = (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            ((phase + 40.0 * t * t).sin(), 0.0)
        })
        .collect();
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            v.swap(i, j);
        }
    }
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * PI / len as f64;
        let wl = (angle.cos(), angle.sin());
        for s in (0..n).step_by(len) {
            let mut w = (1.0, 0.0);
            for k in 0..len / 2 {
                let (u, t) = (v[s + k], cmul(w, v[s + k + len / 2]));
                v[s + k] = (u.0 + t.0, u.1 + t.1);
                v[s + k + len / 2] = csub(u, t);
                w = cmul(w, wl);
            }
        }
        len <<= 1;
    }
    v.iter().map(|z| z.0 * z.0 + z.1 * z.1).sum()
}

/// Formats `count` numbers into one JSON-like line and parses them back.
fn text(count: usize, scale: f64) -> f64 {
    let line = (0..count)
        .map(|i| format!("\"k{i}\":{:.9}", scale * (i + 1) as f64))
        .collect::<Vec<_>>()
        .join(",");
    line.split(',')
        .filter_map(|kv| kv.split_once(':'))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

/// One probe unit, about 45 µs on the reference host.
fn unit(x: f64) -> f64 {
    rk4(60, x) + alias_sum(40, x) + lu_solve(8, x) + fft(8, x) + text(16, x)
}

/// How much slower than the reference host this host runs now: every
/// one of [`THREADS`] threads runs probe units for [`PROBE`], and the
/// reference rate is divided by their summed rate (above 1: slower).
pub fn slowdown() -> f64 {
    let rate: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                s.spawn(move || {
                    let start = Instant::now();
                    let (mut n, mut acc) = (0u32, 0.0);
                    while start.elapsed() < PROBE {
                        acc += unit(black_box(1.0 + 1e-3 * t as f64 + 1e-9 * f64::from(n)));
                        n += 1;
                    }
                    black_box(acc);
                    f64::from(n) / start.elapsed().as_secs_f64()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("probe threads do not panic"))
            .sum()
    });
    REF_UNITS_PER_S / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_is_deterministic_and_finite() {
        assert_eq!(unit(1.0).to_bits(), unit(1.0).to_bits());
        assert!(unit(1.0).is_finite());
    }

    #[test]
    fn slowdown_is_positive() {
        let s = slowdown();
        assert!(s.is_finite() && s > 0.0);
    }
}
