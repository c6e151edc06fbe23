//! Conservative finite-volume advection kernels.
//!
//! The hyperbolic part of Eq. 14, `f_t + ν f_q + (g f)_ν = 0`, is solved
//! by dimensional splitting: 1-D sweeps along q (velocity ν, constant per
//! ν-row) and along ν (velocity `g(q, ν + μ)`, varying per cell). Each
//! sweep uses a flux-limited high-resolution scheme: first-order upwind
//! plus a limited anti-diffusive correction (the classical "flux limiter"
//! method, TVD for Courant numbers ≤ 1). TVD implies no new extrema, so a
//! non-negative density stays non-negative.
//!
//! Fluxes at the domain boundary faces are zero ("blocked"), which makes
//! every sweep exactly mass-conserving: mass that the characteristics
//! would carry out of the domain piles up in the boundary cells instead.
//! At q = 0 that is precisely the paper's convention (ν = 0 when Q = 0
//! and λ < μ: the queue cannot drain below empty); at the outer edges it
//! is a modelling requirement — pick the domain large enough that no
//! appreciable mass reaches them (the mass audit in
//! [`crate::density::Density::mass`] checks this).

use serde::Serialize;

/// Slope/flux limiter selection for the advection sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Limiter {
    /// First-order upwind (no correction) — most diffusive, unconditionally
    /// monotone.
    Upwind,
    /// Minmod — least compressive second-order limiter.
    Minmod,
    /// Van Leer's smooth limiter — good general default.
    VanLeer,
    /// Superbee — most compressive, sharpest fronts.
    Superbee,
}

impl Limiter {
    /// The limiter function φ(r) applied to the slope ratio r. A
    /// degenerate ratio (±∞ or NaN, from 0/0 at flat regions) gets no
    /// correction.
    #[must_use]
    #[inline]
    pub fn phi(self, r: f64) -> f64 {
        // Each arm computes its value outright and picks with a select,
        // so sweeps over many faces compile without per-face branches.
        let phi = match self {
            Limiter::Upwind => 0.0,
            Limiter::Minmod => r.clamp(0.0, 1.0),
            Limiter::VanLeer => {
                let smooth = 2.0 * r / (1.0 + r);
                if r <= 0.0 {
                    0.0
                } else {
                    smooth
                }
            }
            Limiter::Superbee => {
                let a = (2.0 * r).min(1.0);
                let b = r.min(2.0);
                a.max(b).max(0.0)
            }
        };
        if r.is_finite() {
            phi
        } else {
            0.0
        }
    }
}

/// Evaluate `$body` with `$phi` bound to the limiter's φ as a closure of
/// its own type, so a sweep taking it is compiled once per limiter with
/// φ inlined rather than matched at every face.
macro_rules! with_phi {
    ($limiter:expr, $phi:ident => $body:expr) => {
        match $limiter {
            Limiter::Upwind => {
                let $phi = |r: f64| Limiter::Upwind.phi(r);
                $body
            }
            Limiter::Minmod => {
                let $phi = |r: f64| Limiter::Minmod.phi(r);
                $body
            }
            Limiter::VanLeer => {
                let $phi = |r: f64| Limiter::VanLeer.phi(r);
                $body
            }
            Limiter::Superbee => {
                let $phi = |r: f64| Limiter::Superbee.phi(r);
                $body
            }
        }
    };
}
pub(crate) use with_phi;

/// One conservative 1-D advection sweep with per-face velocities.
///
/// * `f` — cell averages (length n), updated in place.
/// * `vel` — face velocities (length n + 1); `vel[0]` and `vel[n]` are the
///   boundary faces whose fluxes are forced to zero.
/// * `dx`, `dt` — cell width and time step; the caller is responsible for
///   stability. The sharp condition for a varying field is per-cell
///   *outflow*: `dt/dx · (max(0, v_right) − min(0, v_left)) ≤ 1` for
///   every cell (a diverging field drains a cell through both faces at
///   once). For constant-sign or monotone fields — the control-law
///   fields this crate produces (`g` is monotone in ν, and the q-velocity
///   is constant per row) — this reduces to the familiar
///   `max|vel|·dt/dx ≤ 1`.
/// * `flux` — scratch of length n + 1.
///
/// # Panics
/// Debug-asserts on length mismatches.
pub fn advect_sweep(
    f: &mut [f64],
    vel: &[f64],
    dx: f64,
    dt: f64,
    limiter: Limiter,
    flux: &mut [f64],
) {
    let n = f.len();
    debug_assert_eq!(vel.len(), n + 1);
    debug_assert_eq!(flux.len(), n + 1);
    debug_assert!(n >= 2);
    let step = AdvectStep { dx, dt, limiter };
    face_fluxes(f, 0, n, vel, 0, step, flux);
    step.apply(f, flux);
}

/// Cell width, time step and limiter of one advection sub-step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdvectStep {
    pub(crate) dx: f64,
    pub(crate) dt: f64,
    pub(crate) limiter: Limiter,
}

impl AdvectStep {
    /// `½|v|(1 − |v|·dt/dx)`: the factor of the anti-diffusive
    /// correction at a face with velocity `v`.
    #[inline]
    pub(crate) fn correction_coef(self, v: f64) -> f64 {
        let c = v.abs() * self.dt / self.dx;
        0.5 * v.abs() * (1.0 - c)
    }

    /// The conservative update `f_j −= dt/dx · (flux_{j+1} − flux_j)`;
    /// `flux` has one more entry than `f`.
    pub(crate) fn apply(self, f: &mut [f64], flux: &[f64]) {
        let ratio = self.dt / self.dx;
        for ((fj, &lo), &hi) in f.iter_mut().zip(flux).zip(&flux[1..]) {
            *fj -= ratio * (hi - lo);
        }
    }
}

/// Flux through a face with velocity `v ≠ 0` whose upwind cell is
/// `f_up`, downwind cell `f_down`, and one-further-upwind cell
/// `f_upup`: first-order upwind `v·f_up` plus the limited correction
/// `coef·φ(r)·(f_down − f_up)`, `coef` from
/// [`AdvectStep::correction_coef`] and `phi` a [`Limiter::phi`].
#[inline]
pub(crate) fn limited_flux(
    v: f64,
    coef: f64,
    f_upup: f64,
    f_up: f64,
    f_down: f64,
    phi: impl Fn(f64) -> f64,
) -> f64 {
    // Slope ratio r = (f_up − f_upup)/(f_down − f_up); a flat downwind
    // step gives r = 0 (flat upwind too) or r = ∞.
    let denom = f_down - f_up;
    let numer = f_up - f_upup;
    let quotient = numer / denom;
    let flat = if numer == 0.0 { 0.0 } else { f64::INFINITY };
    let r = if denom == 0.0 { flat } else { quotient };
    v * f_up + coef * phi(r) * denom
}

/// Fluxes through faces `k0 .. k0 + flux.len()` of an `n`-cell line.
///
/// `window` holds the line's cells from global index `w0` on and must
/// cover every cell those faces read (two on each side); `vel[kk]` is
/// the velocity at face `k0 + kk`. Faces 0 and `n` are blocked, and a
/// zero velocity carries no flux. The limited correction falls back to
/// first order where the stencil would leave the line.
pub(crate) fn face_fluxes(
    window: &[f64],
    w0: usize,
    n: usize,
    vel: &[f64],
    k0: usize,
    step: AdvectStep,
    flux: &mut [f64],
) {
    let k_end = k0 + flux.len();
    // Faces 2 ..= n−2 have the full four-cell stencil for either sign of
    // v; only the faces outside that range need the edge cases.
    let lo = k0.max(2).min(k_end);
    let hi = k_end.min(n.saturating_sub(1)).max(lo);
    for k in (k0..lo).chain(hi..k_end) {
        flux[k - k0] = edge_face_flux(window, w0, n, vel[k - k0], k, step);
    }
    if lo < hi {
        let cells = &window[lo - 2 - w0..hi + 1 - w0];
        let (vel, flux) = (&vel[lo - k0..hi - k0], &mut flux[lo - k0..hi - k0]);
        with_phi!(step.limiter, phi => interior_fluxes(cells, vel, step, phi, flux));
    }
}

/// The interior-face loop of [`face_fluxes`], compiled once per limiter
/// and free of per-face branches so that it vectorises.
fn interior_fluxes(
    cells: &[f64],
    vel: &[f64],
    step: AdvectStep,
    phi: impl Fn(f64) -> f64 + Copy,
    flux: &mut [f64],
) {
    let limited = step.limiter != Limiter::Upwind;
    // Face k reads cells k−2, k−1, k, k+1: `cells` starts two cells
    // before the first face.
    let m = flux.len();
    let (c0, c1, c2, c3) = (
        &cells[..m],
        &cells[1..=m],
        &cells[2..m + 2],
        &cells[3..m + 3],
    );
    let cells = c0.iter().zip(c1).zip(c2.iter().zip(c3));
    for ((fl, &v), ((&a, &b), (&c, &d))) in flux.iter_mut().zip(vel).zip(cells) {
        let (upup, up, down) = if v > 0.0 { (a, b, c) } else { (d, c, b) };
        let first = v * up;
        let second = limited_flux(v, step.correction_coef(v), upup, up, down, phi);
        let f = if limited { second } else { first };
        *fl = if v == 0.0 { 0.0 } else { f };
    }
}

/// [`face_fluxes`] at one face `k` with velocity `v`, any position on
/// the line: blocked at 0 and `n`, first order where the stencil would
/// leave the line.
fn edge_face_flux(window: &[f64], w0: usize, n: usize, v: f64, k: usize, step: AdvectStep) -> f64 {
    if k == 0 || k == n || v == 0.0 {
        return 0.0;
    }
    let cell = |g: usize| window[g - w0];
    // Upwind and downwind cells relative to face k (between cells k−1
    // and k), and one more cell upwind when it exists.
    let (up, down, upup) = if v > 0.0 {
        (k - 1, k, (k >= 2).then(|| k - 2))
    } else {
        (k, k - 1, (k + 1 < n).then_some(k + 1))
    };
    match upup {
        Some(uu) if step.limiter != Limiter::Upwind => limited_flux(
            v,
            step.correction_coef(v),
            cell(uu),
            cell(up),
            cell(down),
            |r| step.limiter.phi(r),
        ),
        _ => v * cell(up),
    }
}

/// Explicit zero-flux (Neumann) diffusion sweep: `f_t = d · f_xx`.
/// Stable for `d·dt/dx² ≤ 0.5`. Exactly mass-conserving.
pub fn diffuse_explicit(f: &mut [f64], d: f64, dx: f64, dt: f64) {
    let mut rows: Vec<&mut [f64]> = f.chunks_mut(1).collect();
    explicit_lanes(&mut rows, &mut [0.0], d * dt / (dx * dx));
}

/// [`diffuse_explicit`] with ratio `r = d·dt/dx²` on `w` lines at once:
/// `rows[i][l]` is cell `i` of line `l`, and `old` (length `w`) is
/// scratch. The inner loops run over the contiguous lane index.
pub(crate) fn explicit_lanes(rows: &mut [&mut [f64]], old: &mut [f64], r: f64) {
    let n = rows.len();
    for i in 0..n {
        let (cur, rest) = rows[i..].split_first_mut().expect("i < n");
        let next = rest.first().map_or(&[][..], |c| &**c);
        let update = match (i == 0, i == n - 1) {
            (true, true) => explicit_row::<true, true>,
            (true, false) => explicit_row::<true, false>,
            (false, true) => explicit_row::<false, true>,
            (false, false) => explicit_row::<false, false>,
        };
        update(cur, old, next, r);
    }
}

/// Row `i` of [`explicit_lanes`]: `old` holds the old row i−1 and `next`
/// the still-old row i+1; `FIRST`/`LAST` mark the boundary rows, whose
/// missing neighbour is never read.
fn explicit_row<const FIRST: bool, const LAST: bool>(
    cur: &mut [f64],
    old: &mut [f64],
    next: &[f64],
    r: f64,
) {
    let w = cur.len();
    let old = &mut old[..w];
    let next = if LAST { next } else { &next[..w] };
    for l in 0..w {
        let o = cur[l];
        let left = if FIRST { 0.0 } else { o - old[l] };
        let right = if LAST { 0.0 } else { next[l] - o };
        cur[l] = o + r * (right - left);
        old[l] = o;
    }
}

/// The Thomas factorisation of the Crank–Nicolson matrix `I − r·L` for
/// zero-flux (Neumann) diffusion on `n` cells, where `L` is the
/// zero-flux Laplacian and `r = ½·d·dt/dx²` for `f_t = d·f_xx`.
///
/// Rows are `[−r, 1+2r, −r]`, the boundary rows reduced to one-sided
/// `1+r`. The matrix depends only on `(n, r)`, so a stepper with a fixed
/// time step factors it once and solves every line and every step with
/// [`CnFactor::solve`]: unconditionally stable and exactly
/// mass-conserving.
#[derive(Debug, Clone)]
pub struct CnFactor {
    r: f64,
    /// Modified super-diagonal `c'ᵢ` of the forward sweep.
    cp: Vec<f64>,
    /// Pivots `βᵢ` of the forward sweep.
    beta: Vec<f64>,
}

impl CnFactor {
    /// Factor the `n × n` matrix for ratio `r`.
    ///
    /// # Errors
    /// [`fpk_numerics::NumericsError::DimensionMismatch`] for `n = 0`;
    /// [`fpk_numerics::NumericsError::Singular`] on a zero pivot, which
    /// cannot occur for `r ≥ 0` (the matrix is diagonally dominant).
    pub fn new(n: usize, r: f64) -> fpk_numerics::Result<Self> {
        use fpk_numerics::NumericsError;
        if n == 0 {
            return Err(NumericsError::DimensionMismatch {
                context: "CnFactor: need at least one cell",
            });
        }
        const TINY: f64 = 1e-300;
        let sub = -r;
        let mut cp = vec![0.0; n];
        let mut beta = vec![0.0; n];
        for i in 0..n {
            let diag = if i == 0 || i == n - 1 {
                1.0 + r
            } else {
                1.0 + 2.0 * r
            };
            let sup = if i == n - 1 { 0.0 } else { -r };
            let b = if i == 0 { diag } else { diag - sub * cp[i - 1] };
            if b.abs() < TINY {
                return Err(NumericsError::Singular {
                    context: "CnFactor: zero pivot",
                });
            }
            beta[i] = b;
            cp[i] = sup / b;
        }
        Ok(Self { r, cp, beta })
    }

    /// Number of cells the factor was built for.
    fn len(&self) -> usize {
        self.beta.len()
    }

    /// The ratio `r` the factor was built for.
    #[must_use]
    pub fn r(&self) -> f64 {
        self.r
    }

    /// One Crank–Nicolson step on the line `f`, in place: form the
    /// right-hand side `(I + r·L) f` and solve `(I − r·L) f' = rhs`.
    ///
    /// # Panics
    /// When `f.len()` differs from the `n` the factor was built for.
    pub fn solve(&self, f: &mut [f64]) {
        assert_eq!(f.len(), self.len(), "CnFactor::solve: line length");
        let mut rows: Vec<&mut [f64]> = f.chunks_mut(1).collect();
        self.solve_lanes(&mut rows, &mut [0.0]);
    }

    /// [`CnFactor::solve`] on `w` lines at once: `rows[i][l]` is cell `i`
    /// of line `l`, and `old` (length `w`) is scratch. The inner loops
    /// run over the contiguous lane index; the forward sweep overwrites
    /// each row in place, keeping only the old row above it in `old`.
    pub(crate) fn solve_lanes(&self, rows: &mut [&mut [f64]], old: &mut [f64]) {
        let n = self.len();
        debug_assert_eq!(rows.len(), n);
        let (r, sub) = (self.r, -self.r);
        for i in 0..n {
            let (done, rest) = rows.split_at_mut(i);
            let (cur, next) = rest.split_first_mut().expect("i < n");
            // Row i−1 already holds its eliminated value; row i+1 is
            // still old. A missing neighbour is never read.
            let prev = done.last().map_or(&[][..], |d| &**d);
            let next = next.first().map_or(&[][..], |d| &**d);
            let beta = self.beta[i];
            let eliminate = match (i == 0, i == n - 1) {
                (true, true) => eliminate_row::<true, true>,
                (true, false) => eliminate_row::<true, false>,
                (false, true) => eliminate_row::<false, true>,
                (false, false) => eliminate_row::<false, false>,
            };
            eliminate(cur, old, prev, next, r, sub, beta);
        }
        for i in (0..n - 1).rev() {
            let (head, tail) = rows.split_at_mut(i + 1);
            let cp = self.cp[i];
            for (x, &y) in head[i].iter_mut().zip(tail[0].iter()) {
                *x -= cp * y;
            }
        }
    }
}

/// One row of the Crank–Nicolson forward sweep on every lane: form
/// row `i`'s right-hand side from the old cells `old` (row i−1), `cur`
/// and `next` (row i+1), eliminate against the already-eliminated `prev`
/// (row i−1), and save the old `cur` into `old`. `FIRST`/`LAST` mark the
/// boundary rows, whose missing neighbour is never read.
fn eliminate_row<const FIRST: bool, const LAST: bool>(
    cur: &mut [f64],
    old: &mut [f64],
    prev: &[f64],
    next: &[f64],
    r: f64,
    sub: f64,
    beta: f64,
) {
    let w = cur.len();
    let old = &mut old[..w];
    let prev = if FIRST { prev } else { &prev[..w] };
    let next = if LAST { next } else { &next[..w] };
    for l in 0..w {
        let o = cur[l];
        let left = if FIRST { 0.0 } else { o - old[l] };
        let right = if LAST { 0.0 } else { next[l] - o };
        let rhs = o + r * (right - left);
        cur[l] = if FIRST {
            rhs / beta
        } else {
            (rhs - sub * prev[l]) / beta
        };
        old[l] = o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mass(f: &[f64]) -> f64 {
        f.iter().sum()
    }

    #[test]
    fn limiters_at_canonical_ratios() {
        for lim in [Limiter::Minmod, Limiter::VanLeer, Limiter::Superbee] {
            assert_eq!(lim.phi(-1.0), 0.0, "{lim:?} must vanish for r<0");
            assert!((lim.phi(1.0) - 1.0).abs() < 1e-12, "{lim:?} φ(1)=1");
        }
        assert_eq!(Limiter::Upwind.phi(1.0), 0.0);
        assert_eq!(Limiter::Superbee.phi(0.25), 0.5);
        assert_eq!(Limiter::Minmod.phi(2.0), 1.0);
        assert_eq!(Limiter::VanLeer.phi(f64::INFINITY), 0.0); // degenerate guard
    }

    #[test]
    fn advect_conserves_mass_and_positivity() {
        let n = 50;
        let mut f = vec![0.0; n];
        for (i, v) in f.iter_mut().enumerate() {
            *v = (-((i as f64 - 25.0) / 4.0).powi(2)).exp();
        }
        let m0 = mass(&f);
        let vel = vec![1.0; n + 1];
        let mut flux = vec![0.0; n + 1];
        for _ in 0..100 {
            advect_sweep(&mut f, &vel, 1.0, 0.5, Limiter::VanLeer, &mut flux);
        }
        assert!((mass(&f) - m0).abs() < 1e-12 * m0);
        assert!(f.iter().all(|&v| v >= -1e-14), "positivity violated");
    }

    #[test]
    fn advect_translates_profile() {
        // Move a bump 20 cells right at CFL 0.5 and compare the centroid.
        let n = 100;
        let mut f = vec![0.0; n];
        for (i, v) in f.iter_mut().enumerate() {
            *v = (-((i as f64 - 30.0) / 5.0).powi(2)).exp();
        }
        let centroid = |f: &[f64]| {
            let m: f64 = f.iter().sum();
            f.iter().enumerate().map(|(i, v)| i as f64 * v).sum::<f64>() / m
        };
        let c0 = centroid(&f);
        let vel = vec![1.0; n + 1];
        let mut flux = vec![0.0; n + 1];
        // 40 steps at dt=0.5, dx=1 → shift of 20 cells.
        for _ in 0..40 {
            advect_sweep(&mut f, &vel, 1.0, 0.5, Limiter::Superbee, &mut flux);
        }
        let c1 = centroid(&f);
        assert!((c1 - c0 - 20.0).abs() < 0.05, "centroid moved {}", c1 - c0);
    }

    #[test]
    fn advect_left_blocked_at_boundary() {
        // Leftward velocity: mass piles into cell 0, never leaves.
        let n = 20;
        let mut f = vec![1.0; n];
        let m0 = mass(&f);
        let vel = vec![-1.0; n + 1];
        let mut flux = vec![0.0; n + 1];
        for _ in 0..200 {
            advect_sweep(&mut f, &vel, 1.0, 0.4, Limiter::VanLeer, &mut flux);
        }
        assert!((mass(&f) - m0).abs() < 1e-10);
        assert!(
            f[0] > f[n - 1],
            "mass should accumulate at the blocked wall"
        );
    }

    #[test]
    fn advect_varying_velocity_conserves() {
        // Converging velocity field (positive left, negative right):
        // mass accumulates in the centre but total is conserved.
        let n = 40;
        let mut f = vec![1.0; n];
        let m0 = mass(&f);
        let vel: Vec<f64> = (0..=n).map(|k| 1.0 - 2.0 * k as f64 / n as f64).collect();
        let mut flux = vec![0.0; n + 1];
        for _ in 0..100 {
            advect_sweep(&mut f, &vel, 1.0, 0.4, Limiter::Minmod, &mut flux);
        }
        assert!((mass(&f) - m0).abs() < 1e-10);
        let mid = n / 2;
        assert!(
            f[mid] > 2.0 * f[1],
            "mass should focus at the convergence point"
        );
    }

    #[test]
    fn upwind_more_diffusive_than_superbee() {
        let n = 100;
        let init: Vec<f64> = (0..n)
            .map(|i| if (40..60).contains(&i) { 1.0 } else { 0.0 })
            .collect();
        let run = |lim: Limiter| {
            let mut f = init.clone();
            let vel = vec![1.0; n + 1];
            let mut flux = vec![0.0; n + 1];
            for _ in 0..30 {
                advect_sweep(&mut f, &vel, 1.0, 0.5, lim, &mut flux);
            }
            // L2 norm is a sharpness proxy: smearing a box profile
            // strictly lowers Σf² at fixed mass.
            f.iter().map(|v| v * v).sum::<f64>()
        };
        let l2_upwind = run(Limiter::Upwind);
        let l2_superbee = run(Limiter::Superbee);
        assert!(
            l2_superbee > l2_upwind + 0.1,
            "superbee L2 {l2_superbee} should stay sharper than upwind {l2_upwind}"
        );
    }

    #[test]
    fn explicit_diffusion_conserves_and_spreads() {
        let n = 60;
        let mut f = vec![0.0; n];
        f[30] = 1.0;
        let m0 = mass(&f);
        for _ in 0..100 {
            diffuse_explicit(&mut f, 1.0, 1.0, 0.4);
        }
        assert!((mass(&f) - m0).abs() < 1e-12);
        assert!(f[30] < 0.2);
        assert!(f[20] > 0.0);
    }

    #[test]
    fn crank_nicolson_matches_explicit_on_smooth_data() {
        let n = 50;
        let mut fe = vec![0.0; n];
        for (i, v) in fe.iter_mut().enumerate() {
            *v = (-((i as f64 - 25.0) / 6.0).powi(2)).exp();
        }
        let mut fc = fe.clone();
        // Small dt so both schemes are accurate: d = 0.5, dx = 1, dt = 0.1.
        let cn = CnFactor::new(n, 0.5 * 0.5 * 0.1).unwrap();
        for _ in 0..200 {
            diffuse_explicit(&mut fe, 0.5, 1.0, 0.1);
            cn.solve(&mut fc);
        }
        for (a, b) in fe.iter().zip(fc.iter()) {
            assert!((a - b).abs() < 1e-3, "explicit {a} vs CN {b}");
        }
    }

    #[test]
    fn crank_nicolson_stable_at_large_dt() {
        let n = 40;
        let mut f = vec![0.0; n];
        f[20] = 1.0;
        // d = 1, dx = 1, dt = 50: r = 25 — far beyond the explicit
        // stability limit. CN is stable (bounded, conservative) but
        // rings on a delta initial condition:
        // high-wavenumber modes have amplification factor → −1, so we
        // assert stability and decay of the peak, not uniformity.
        let cn = CnFactor::new(n, 25.0).unwrap();
        for _ in 0..20 {
            cn.solve(&mut f);
            // CN is L2-stable; the sup-norm can wiggle as the ringing
            // pattern shifts but must stay bounded by the initial peak.
            let max = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(max <= 1.0 + 1e-12, "sup-norm blew up: {max}");
        }
        let m: f64 = f.iter().sum();
        assert!((m - 1.0).abs() < 1e-10, "mass {m}");
        assert!(f.iter().all(|v| v.is_finite()));
        let final_max = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(final_max < 0.9, "peak should have decayed, max {final_max}");
    }

    /// The right-hand side and Thomas solve `CnFactor` replaced, built
    /// per call from full matrix diagonals.
    fn crank_nicolson_reference(f: &mut [f64], r: f64) {
        let n = f.len();
        let mut rhs = vec![0.0; n];
        for i in 0..n {
            let left = if i == 0 { 0.0 } else { f[i] - f[i - 1] };
            let right = if i == n - 1 { 0.0 } else { f[i + 1] - f[i] };
            rhs[i] = f[i] + r * (right - left);
        }
        let diag: Vec<f64> = (0..n)
            .map(|i| {
                if i == 0 || i == n - 1 {
                    1.0 + r
                } else {
                    1.0 + 2.0 * r
                }
            })
            .collect();
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { -r }).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { -r }).collect();
        let mut scratch = vec![0.0; n];
        fpk_numerics::linalg::solve_tridiagonal(&sub, &diag, &sup, &mut rhs, &mut scratch).unwrap();
        f.copy_from_slice(&rhs);
    }

    #[test]
    fn cn_factor_reproduces_the_full_thomas_solve_bit_for_bit() {
        for n in [1, 2, 3, 17, 64] {
            for r in [0.0, 0.013, 0.7, 25.0] {
                let line: Vec<f64> = (0..n).map(|i| ((i * 7919) % 13) as f64 / 3.0).collect();
                let mut want = line.clone();
                crank_nicolson_reference(&mut want, r);
                let mut got = line.clone();
                CnFactor::new(n, r).unwrap().solve(&mut got);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}, r = {r}");
            }
        }
    }

    #[test]
    fn cn_factor_lanes_match_single_line_solves() {
        let (n, w) = (23, 5);
        let mut data: Vec<f64> = (0..n * w).map(|k| ((k * 31) % 17) as f64 + 0.25).collect();
        let lines: Vec<Vec<f64>> = (0..w)
            .map(|l| (0..n).map(|i| data[i * w + l]).collect())
            .collect();
        let cn = CnFactor::new(n, 1.3).unwrap();
        let mut rows: Vec<&mut [f64]> = data.chunks_mut(w).collect();
        let mut old = vec![0.0; w];
        cn.solve_lanes(&mut rows, &mut old);
        for (l, line) in lines.into_iter().enumerate() {
            let mut want = line;
            cn.solve(&mut want);
            for (i, v) in want.iter().enumerate() {
                assert_eq!(data[i * w + l].to_bits(), v.to_bits(), "cell {i} lane {l}");
            }
        }
    }

    #[test]
    fn cn_factor_rejects_empty_and_singular() {
        assert!(CnFactor::new(0, 0.5).is_err());
        // r = −1 zeroes the first pivot 1 + r.
        assert!(CnFactor::new(4, -1.0).is_err());
        assert_eq!(CnFactor::new(4, 0.5).unwrap().len(), 4);
    }
}
