//! Bit-exact pins for the Fokker–Planck solver of Eq. 14.
//!
//! Every constant below was captured from the row-at-a-time stepper
//! (one strided q-line gathered, swept and scattered back per ν-row) so
//! that any restructuring of the time loop is proven by these strings
//! staying unchanged. A fingerprint is a 64-bit FNV-1a hash over the bit
//! pattern of every density cell plus the `f64::to_bits` of `time()`,
//! `mass()` and `mean_q()`, so a one-ulp move anywhere fails.
//!
//! The cases cover the Table 2 grid, three of the four limiters, both
//! diffusion schemes, the σ² = 0 path and an odd 61×37 grid whose
//! centre ν-row sits exactly at ν = 0 and one of whose ν-faces has
//! `g = 0` (the zero-velocity branches of both advection sweeps). Each
//! is checked at 1–4 workers (`FpSolver::run_until_on`): the slab
//! stepper promises bits that do not depend on the worker count.

use fpk_repro::congestion::LinearExp;
use fpk_repro::fpk::solver::{DiffusionScheme, FpProblem, FpSolver};
use fpk_repro::fpk::{Density, Limiter};

/// One pinned configuration.
struct Case {
    nq: usize,
    nnu: usize,
    nu_range: (f64, f64),
    /// Gaussian initial condition: mean q, mean ν, std q, std ν.
    init: (f64, f64, f64, f64),
    mu: f64,
    sigma2: f64,
    limiter: Limiter,
    diffusion: DiffusionScheme,
}

impl Case {
    /// The Table 6 grid (120×72) and initial condition with σ² = 0.4.
    fn tbl6(limiter: Limiter, diffusion: DiffusionScheme, sigma2: f64) -> Self {
        Self {
            nq: 120,
            nnu: 72,
            nu_range: (-6.0, 6.0),
            init: (8.0, -1.0, 1.0, 0.5),
            mu: 5.0,
            sigma2,
            limiter,
            diffusion,
        }
    }

    fn solver(&self) -> FpSolver<LinearExp> {
        let grid =
            Density::standard_grid(40.0, self.nu_range.0, self.nu_range.1, self.nq, self.nnu)
                .unwrap();
        let (mq, mn, sq, sn) = self.init;
        let init = Density::gaussian(grid, mq, mn, sq, sn).unwrap();
        let mut problem = FpProblem::new(LinearExp::new(1.0, 0.5, 10.0), self.mu, self.sigma2);
        problem.limiter = self.limiter;
        problem.diffusion = self.diffusion;
        FpSolver::new(problem, init).unwrap()
    }
}

/// 64-bit FNV-1a over the little-endian bytes of every cell's bits.
fn fnv1a(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in data {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(s: &FpSolver<LinearExp>) -> String {
    let d = s.density();
    format!(
        "{:016x} t={:016x} m={:016x} q={:016x}",
        fnv1a(&d.data),
        s.time().to_bits(),
        d.mass().to_bits(),
        d.mean_q().to_bits()
    )
}

/// Snapshot times every case is pinned at.
const TIMES: [f64; 2] = [1.0, 3.0];

/// Worker counts every golden is checked at: serial, even and uneven
/// slab splits.
const WORKERS: [usize; 4] = [1, 2, 3, 4];

/// Run `case` through [`TIMES`] on `workers` slabs and compare each
/// snapshot with `want`.
fn check_on(case: &Case, workers: usize, want: [&str; 2]) {
    let mut s = case.solver();
    for (&t, want) in TIMES.iter().zip(want) {
        s.run_until_on(t, workers).unwrap();
        assert_eq!(fingerprint(&s), want, "t = {t}, workers = {workers}");
    }
}

/// [`check_on`] at every count in [`WORKERS`]: the output must not
/// depend on how the ν-rows are split.
fn check(case: &Case, want: [&str; 2]) {
    for workers in WORKERS {
        check_on(case, workers, want);
    }
}

#[test]
fn tbl2_grid_is_pinned() {
    let case = Case {
        nq: 200,
        nnu: 120,
        nu_range: (-6.0, 6.0),
        init: (3.0, -3.0, 1.2, 0.6),
        mu: 5.0,
        sigma2: 0.4,
        limiter: Limiter::VanLeer,
        diffusion: DiffusionScheme::CrankNicolson,
    };
    check(
        &case,
        [
            "cff82649b29b4db9 t=3ff0000000000000 m=3fefffffffffffc7 q=3ff11c7346a16905",
            "02628ba3dc1e0a7e t=4008000000000000 m=3fefffffffffff8d q=3fea7ce57b52bb36",
        ],
    );
}

#[test]
fn upwind_is_pinned() {
    let case = Case::tbl6(Limiter::Upwind, DiffusionScheme::CrankNicolson, 0.4);
    check(
        &case,
        [
            "51a8ed1f96bc0e62 t=3ff0000000000000 m=3ff000000000000d q=401de53593d0dc5d",
            "d4960dcf77817cda t=4008000000000000 m=3ff0000000000011 q=4021a10943687b21",
        ],
    );
}

#[test]
fn minmod_is_pinned() {
    let case = Case::tbl6(Limiter::Minmod, DiffusionScheme::CrankNicolson, 0.4);
    check(
        &case,
        [
            "19847083257175d4 t=3ff0000000000000 m=3ff0000000000017 q=401de33f9fe18b2f",
            "c26f2d82017ab915 t=4008000000000000 m=3ff0000000000013 q=4021ca578c2e5420",
        ],
    );
}

#[test]
fn superbee_is_pinned() {
    let case = Case::tbl6(Limiter::Superbee, DiffusionScheme::CrankNicolson, 0.4);
    check(
        &case,
        [
            "e94764abc6ab6809 t=3ff0000000000000 m=3ff0000000000019 q=401de21b168b75bd",
            "7c5e1395d7bdce5f t=4008000000000000 m=3ff0000000000023 q=4021d4da22d70173",
        ],
    );
}

#[test]
fn explicit_diffusion_is_pinned() {
    let case = Case::tbl6(Limiter::VanLeer, DiffusionScheme::Explicit, 0.4);
    check(
        &case,
        [
            "4c92c47891e4c6d4 t=3ff0000000000000 m=3feffffffffffffa q=401de2bf149a3b37",
            "af7fbec0917bbcf3 t=4008000000000000 m=3ff0000000000015 q=4021ce7fe7f93ef2",
        ],
    );
}

#[test]
fn zero_sigma_is_pinned() {
    let case = Case::tbl6(Limiter::VanLeer, DiffusionScheme::CrankNicolson, 0.0);
    check(
        &case,
        [
            "26d53db43600706f t=3ff0000000000000 m=3ff000000000000a q=401deb750124ee00",
            "77dfeb1057c66566 t=4008000000000000 m=3ff000000000000f q=40221734b06f3c6e",
        ],
    );
}

#[test]
fn odd_grid_with_zero_velocities_is_pinned() {
    // dν = 0.5: ν-row 18 is centred on ν = 0 exactly, and with μ = 5.25
    // ν-face 8 sits at λ = 0, where the JRJ decrease g = −c₁λ vanishes.
    let case = Case {
        nq: 61,
        nnu: 37,
        nu_range: (-9.25, 9.25),
        init: (8.0, -1.0, 1.0, 0.5),
        mu: 5.25,
        sigma2: 0.4,
        limiter: Limiter::VanLeer,
        diffusion: DiffusionScheme::CrankNicolson,
    };
    let s = case.solver();
    assert_eq!(s.density().grid.y.center(18), 0.0);
    assert_eq!(s.density().grid.y.face(8) + case.mu, 0.0);
    check(
        &case,
        [
            "3214c05b2cb17ff0 t=3ff0000000000000 m=3fefffffffffffef q=401dcdd8ec7286b9",
            "3a03145c48a4c6e6 t=4008000000000000 m=3feffffffffffffb q=40214657b56585fd",
        ],
    );
}

/// An odd 61×37 grid. dν = 0.5: ν-row 18 is centred on ν = 0 exactly,
/// and with μ = 5.25 ν-face 8 sits at λ = 0, where the JRJ decrease
/// g = −c₁λ vanishes.
fn odd_case() -> Case {
    Case {
        nq: 61,
        nnu: 37,
        nu_range: (-9.25, 9.25),
        init: (8.0, -1.0, 1.0, 0.5),
        mu: 5.25,
        sigma2: 0.4,
        limiter: Limiter::VanLeer,
        diffusion: DiffusionScheme::CrankNicolson,
    }
}

#[test]
fn minimum_slab_width_matches_serial() {
    // 37 ν-rows hold at most 18 slabs of two rows; asking for more
    // workers lowers the count to that limit instead of failing.
    let reference = |workers: usize| {
        let mut s = odd_case().solver();
        TIMES
            .iter()
            .map(|&t| {
                s.run_until_on(t, workers).unwrap();
                fingerprint(&s)
            })
            .collect::<Vec<_>>()
    };
    // One worker is pinned by `odd_grid_with_zero_velocities_is_pinned`.
    let serial = reference(1);
    for workers in [0, 18, 19, 64] {
        assert_eq!(reference(workers), serial, "workers = {workers}");
    }
}

#[test]
fn step_loop_matches_run_until() {
    // `step` is the one-slab case of the same kernels: driving it by
    // hand on the dt sequence `run_until` chooses lands on the same bits.
    let case = odd_case();
    let mut by_step = case.solver();
    let dt_max = by_step.max_dt();
    let t_end = 1.0;
    while by_step.time() < t_end - 1e-12 {
        let dt = dt_max.min(t_end - by_step.time());
        by_step.step(dt).unwrap();
    }
    let mut by_run = case.solver();
    by_run.run_until_on(t_end, 3).unwrap();
    assert_eq!(fingerprint(&by_step), fingerprint(&by_run));
}
