//! The Fokker–Planck solver for Eq. 14 of the paper:
//!
//! ```text
//! f_t + ν f_q + (g f)_ν = (σ²/2) f_qq
//! ```
//!
//! evolved on a 2-D grid by Strang splitting:
//!
//! 1. advect in q with velocity ν (constant along each ν-row),
//! 2. advect in ν with velocity `g(q, ν + μ)` (the control law),
//! 3. diffuse in q with coefficient σ²/2,
//!
//! each sub-step using the conservative kernels of [`crate::fv`]. The
//! q = 0 face is blocked (the paper's empty-queue convention), the outer
//! faces are blocked too (domain must be large enough; audited by
//! [`crate::density::Density::boundary_mass_fraction`]).
//!
//! # Slabs
//!
//! The density is stored q-column by q-column (`data[i * ny + j]`), so a
//! ν-row is strided and a q-column is contiguous. [`FpSolver::run_until_on`]
//! splits the ν-rows into one contiguous slab per worker. A lone slab
//! steps the density in place. Several slabs each step a private,
//! contiguous copy of their rows, copied in when the call starts and
//! written back when it ends: were they pieces of the shared q-columns,
//! the slab edge would put one cache line of every column under two
//! writers. Inside a slab the q-advection and the diffusion sweep all of
//! the slab's ν-rows in lockstep, the inner loop running over contiguous
//! ν. The ν-advection of a q-column needs two cells beyond each slab
//! edge, which neighbouring slabs swap over channels before each
//! ν-sub-step: two sync points per step. A face on a slab edge is
//! computed by both sides from the same inputs, and every cell sees
//! exactly the arithmetic of the serial sweep, so the result is
//! bit-identical for any worker count.

use crate::density::Density;
use crate::fv::{
    explicit_lanes, face_fluxes, limited_flux, with_phi, AdvectStep, CnFactor, Limiter,
};
use fpk_congestion::RateControl;
use fpk_numerics::exec::thread_count;
use fpk_numerics::grid::Grid2d;
use fpk_numerics::{NumericsError, Result};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// ν-cells the limited flux through a slab's edge face reads beyond
/// the edge: the halo each neighbour sends before a ν-sub-step.
const HALO: usize = 2;

/// Fewest ν-rows a slab may hold, so that a halo comes from one
/// neighbour.
const MIN_SLAB_ROWS: usize = HALO;

/// How the diffusion term is integrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffusionScheme {
    /// Forward Euler — cheap, needs `σ²/2·dt/dq² ≤ 0.5` (folded into the
    /// CFL computation).
    Explicit,
    /// Crank–Nicolson — unconditionally stable tridiagonal solve per
    /// ν-row.
    CrankNicolson,
}

/// Problem specification for the Fokker–Planck evolution.
#[derive(Debug, Clone)]
pub struct FpProblem<L> {
    /// The rate-control law supplying the ν-drift `g`.
    pub law: L,
    /// Bottleneck service rate μ (ν = λ − μ).
    pub mu: f64,
    /// Diffusion strength σ² (variance rate of the queue noise).
    pub sigma2: f64,
    /// Flux limiter for the advection sweeps.
    pub limiter: Limiter,
    /// Diffusion integration scheme.
    pub diffusion: DiffusionScheme,
    /// CFL safety factor in (0, 1].
    pub cfl: f64,
}

impl<L: RateControl> FpProblem<L> {
    /// Standard configuration: van Leer limiter, Crank–Nicolson
    /// diffusion, CFL 0.8.
    pub fn new(law: L, mu: f64, sigma2: f64) -> Self {
        Self {
            law,
            mu,
            sigma2,
            limiter: Limiter::VanLeer,
            diffusion: DiffusionScheme::CrankNicolson,
            cfl: 0.8,
        }
    }
}

/// The time stepper: owns the density and the pre-computed ν-face
/// velocities.
pub struct FpSolver<L> {
    problem: FpProblem<L>,
    density: Density,
    t: f64,
    /// ν-advection face velocities per q-column: `w[i * (ny+1) + k]`.
    vel_nu: Vec<f64>,
    /// Crank–Nicolson factor of the latest [`FpSolver::step`], reused
    /// while the step size is unchanged.
    cn: Option<CnFactor>,
}

impl<L: RateControl> FpSolver<L> {
    /// Create a solver from a problem and an initial density.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] for a non-positive or
    /// non-finite μ, a negative or non-finite σ², or a CFL factor outside
    /// (0, 1].
    pub fn new(problem: FpProblem<L>, initial: Density) -> Result<Self> {
        if !(problem.mu > 0.0 && problem.mu.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: mu must be finite and > 0",
            });
        }
        if !(problem.sigma2 >= 0.0 && problem.sigma2.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: sigma2 must be finite and >= 0",
            });
        }
        if !(problem.cfl > 0.0 && problem.cfl <= 1.0) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver: cfl must lie in (0, 1]",
            });
        }
        let nx = initial.grid.x.n();
        let ny = initial.grid.y.n();
        // Pre-compute ν-face velocities g(q_i, ν_face + μ) per column.
        let mut vel_nu = vec![0.0; nx * (ny + 1)];
        for i in 0..nx {
            let q = initial.grid.x.center(i);
            for k in 0..=ny {
                let nu_face = initial.grid.y.face(k);
                vel_nu[i * (ny + 1) + k] = problem.law.g(q, nu_face + problem.mu);
            }
        }
        Ok(Self {
            problem,
            density: initial,
            t: 0.0,
            vel_nu,
            cn: None,
        })
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Borrow the current density.
    #[must_use]
    pub fn density(&self) -> &Density {
        &self.density
    }

    /// Consume the solver, returning the final density.
    #[must_use]
    pub fn into_density(self) -> Density {
        self.density
    }

    /// The largest stable time step under the CFL condition (advection in
    /// both directions, plus diffusion when explicit).
    #[must_use]
    pub fn max_dt(&self) -> f64 {
        let g = &self.density.grid;
        let max_nu = g.y.lo().abs().max(g.y.hi().abs());
        let mut dt = self.problem.cfl * g.x.dx() / max_nu.max(1e-12);
        let max_g = self
            .vel_nu
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-12);
        dt = dt.min(self.problem.cfl * g.y.dx() / max_g);
        if self.problem.diffusion == DiffusionScheme::Explicit && self.problem.sigma2 > 0.0 {
            dt = dt.min(self.problem.cfl * g.x.dx() * g.x.dx() / self.problem.sigma2);
        }
        dt
    }

    /// Advance exactly one Strang-split step of size `dt` (caller must
    /// respect [`FpSolver::max_dt`]) on the calling thread.
    ///
    /// # Errors
    /// Propagates Crank–Nicolson factorisation failures (cannot occur
    /// for valid parameters).
    pub fn step(&mut self, dt: f64) -> Result<()> {
        let frame = Frame::new(&self.problem, &self.density.grid, &self.vel_nu);
        let mut slab = Slab::in_place(&mut self.density.data, &self.density.grid);
        slab.cn = self.cn.take();
        let stepped = slab.strang_step(&frame, dt);
        self.cn = slab.cn.take();
        stepped?;
        self.t += dt;
        Ok(())
    }

    /// Integrate until `t_end`, choosing steps from the CFL bound, on
    /// [`thread_count`] workers (the `FPK_THREADS` override or the
    /// machine's parallelism).
    ///
    /// # Errors
    /// Propagates [`FpSolver::step`]; rejects a `t_end` that is not
    /// finite or lies before `self.time()`.
    pub fn run_until(&mut self, t_end: f64) -> Result<()> {
        self.run_until_on(t_end, thread_count())
    }

    /// [`FpSolver::run_until`] on an explicit number of workers, each
    /// stepping one slab of ν-rows. The count is lowered so that every
    /// slab keeps at least two ν-rows (a `0` counts as `1`). The result
    /// is bit-identical for any worker count.
    ///
    /// # Errors
    /// See [`FpSolver::run_until`].
    pub fn run_until_on(&mut self, t_end: f64, workers: usize) -> Result<()> {
        // Phrased positively so that NaN fails it too.
        if !(t_end >= self.t && t_end.is_finite()) {
            return Err(NumericsError::InvalidParameter {
                context: "FpSolver::run_until: t_end must be finite and >= current time",
            });
        }
        let dt_max = self.max_dt();
        let t0 = self.t;
        let frame = Frame::new(&self.problem, &self.density.grid, &self.vel_nu);
        let (grid, data) = (&self.density.grid, &mut self.density.data[..]);
        let ny = grid.y.n();
        let bounds = slab_bounds(ny, workers);
        let (t, stepped) = if bounds.len() == 2 {
            Slab::in_place(data, grid).run(&frame, t0, t_end, dt_max)
        } else {
            // Each slab steps a private copy of its rows, so no two
            // workers write to one cache line; halos still move over
            // the links.
            let mut rows = gather(data, ny, &bounds);
            let slabs = partition(&mut rows, &bounds, grid);
            let out = run_slabs(slabs, &frame, t0, t_end, dt_max);
            scatter(&rows, data, ny, &bounds);
            out
        };
        self.t = t;
        stepped
    }
}

/// Step every slab from `t0` until `t_end`: the calling thread steps the
/// first slab, one scoped thread each further slab, for the whole call.
/// Returns the time reached and the first error any slab met.
fn run_slabs(
    slabs: Vec<Slab>,
    frame: &Frame,
    t0: f64,
    t_end: f64,
    dt_max: f64,
) -> (f64, Result<()>) {
    let mut slabs = slabs.into_iter();
    std::thread::scope(|scope| {
        let mine = slabs.next().expect("at least one slab");
        let others: Vec<_> = slabs
            .map(|slab| scope.spawn(move || slab.run(frame, t0, t_end, dt_max)))
            .collect();
        let (t, mut stepped) = mine.run(frame, t0, t_end, dt_max);
        for handle in others {
            let (_, r) = handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
            stepped = stepped.and(r);
        }
        (t, stepped)
    })
}

/// What every slab reads and none owns: grid spacing, the ν-face
/// velocities and the problem's scheme choices.
#[derive(Clone, Copy)]
struct Frame<'a> {
    ny: usize,
    dq: f64,
    dnu: f64,
    vel_nu: &'a [f64],
    limiter: Limiter,
    diffusion: DiffusionScheme,
    sigma2: f64,
}

impl<'a> Frame<'a> {
    fn new<L>(problem: &FpProblem<L>, grid: &Grid2d, vel_nu: &'a [f64]) -> Self {
        Self {
            ny: grid.y.n(),
            dq: grid.x.dx(),
            dnu: grid.y.dx(),
            vel_nu,
            limiter: problem.limiter,
            diffusion: problem.diffusion,
            sigma2: problem.sigma2,
        }
    }
}

/// Where `workers` slabs (fewer when a slab would hold under
/// [`MIN_SLAB_ROWS`] rows) cut `ny` ν-rows: slab `s` holds rows
/// `bounds[s] .. bounds[s + 1]`.
fn slab_bounds(ny: usize, workers: usize) -> Vec<usize> {
    let n = workers.clamp(1, (ny / MIN_SLAB_ROWS).max(1));
    (0..=n).map(|s| s * ny / n).collect()
}

/// Each slab's private copy of its ν-rows of `data` (q-columns of `ny`
/// cells), contiguous and q-column by q-column.
fn gather(data: &[f64], ny: usize, bounds: &[usize]) -> Vec<Vec<f64>> {
    bounds
        .windows(2)
        .map(|b| {
            let mut rows = Vec::with_capacity(data.len() / ny * (b[1] - b[0]));
            for column in data.chunks(ny) {
                rows.extend_from_slice(&column[b[0]..b[1]]);
            }
            rows
        })
        .collect()
}

/// Write the slabs' rows from [`gather`] back into `data`.
fn scatter(rows: &[Vec<f64>], data: &mut [f64], ny: usize, bounds: &[usize]) {
    for (rows, b) in rows.iter().zip(bounds.windows(2)) {
        for (column, piece) in data.chunks_mut(ny).zip(rows.chunks(b[1] - b[0])) {
            column[b[0]..b[1]].copy_from_slice(piece);
        }
    }
}

/// Wrap each slab's private rows from [`gather`] in a [`Slab`] wired to
/// its neighbours.
fn partition<'a>(rows: &'a mut [Vec<f64>], bounds: &[usize], grid: &Grid2d) -> Vec<Slab<'a>> {
    let nx = grid.x.n();
    let mut slabs: Vec<Slab<'a>> = rows
        .iter_mut()
        .zip(bounds.windows(2))
        .map(|(rows, b)| Slab::new(rows.chunks_mut(b[1] - b[0]).collect(), b[0], grid))
        .collect();
    // One slot per direction suffices: a send finds the slot still full
    // only while the neighbour is between its own send and its receive
    // of that halo, so it waits briefly and never deadlocks. The bounded
    // channel allocates its slot here, not on each send.
    for s in 1..slabs.len() {
        let (up_tx, up_rx) = sync_channel(1);
        let (down_tx, down_rx) = sync_channel(1);
        slabs[s - 1].above = Some(Link::new(up_tx, down_rx, nx));
        slabs[s].below = Some(Link::new(down_tx, up_rx, nx));
    }
    slabs
}

/// A slab's channel pair to one ν-neighbour.
struct Link {
    tx: SyncSender<Vec<f64>>,
    rx: Receiver<Vec<f64>>,
    /// The neighbour's two ν-rows next to the shared edge, two cells per
    /// q-column in ascending ν, as last received.
    halo: Vec<f64>,
}

impl Link {
    fn new(tx: SyncSender<Vec<f64>>, rx: Receiver<Vec<f64>>, nx: usize) -> Self {
        Self {
            tx,
            rx,
            halo: Vec::with_capacity(2 * nx),
        }
    }

    /// Send the two ν-rows `rows` (a slab-local range) of every column.
    /// The previous halo is spent, so its buffer carries the message.
    fn send(&mut self, cols: &[&mut [f64]], rows: std::ops::Range<usize>) {
        let mut buf = std::mem::take(&mut self.halo);
        buf.clear();
        for col in cols {
            buf.extend_from_slice(&col[rows.clone()]);
        }
        self.tx.send(buf).expect("halo neighbour exited");
    }

    fn receive(&mut self) {
        self.halo = self.rx.recv().expect("halo neighbour exited");
    }

    /// The halo cells of q-column `i`.
    fn column(&self, i: usize) -> &[f64] {
        &self.halo[i * HALO..(i + 1) * HALO]
    }
}

/// One worker's share of the density: ν-rows `j0 .. j0 + w` of every
/// q-column, plus its scratch. Every scratch buffer is O(nx + w).
struct Slab<'a> {
    /// `cols[i]` is this slab's piece of q-column `i`: the density's own
    /// column for the one slab of [`Slab::in_place`], else a piece of the
    /// slab's private rows.
    cols: Vec<&'a mut [f64]>,
    j0: usize,
    /// ν at each of the slab's rows: the q-advection velocity.
    nu: Vec<f64>,
    /// Per-row limiter correction factors of the current q-sub-step.
    coef: Vec<f64>,
    /// Per-row old value of the cell the q-sweep overwrote last.
    old: Vec<f64>,
    /// Per-row flux through the lower face of the cell being updated.
    flux_lo: Vec<f64>,
    /// One q-column with its halo cells, and its ν-face fluxes.
    window: Vec<f64>,
    flux_nu: Vec<f64>,
    below: Option<Link>,
    above: Option<Link>,
    cn: Option<CnFactor>,
}

impl<'a> Slab<'a> {
    fn new(cols: Vec<&'a mut [f64]>, j0: usize, grid: &Grid2d) -> Self {
        let w = cols.first().map_or(0, |c| c.len());
        Self {
            cols,
            j0,
            nu: (j0..j0 + w).map(|j| grid.y.center(j)).collect(),
            coef: vec![0.0; w],
            old: vec![0.0; w],
            flux_lo: vec![0.0; w],
            window: Vec::with_capacity(w + 2 * HALO),
            flux_nu: vec![0.0; w + 1],
            below: None,
            above: None,
            cn: None,
        }
    }

    /// The single slab that steps all of `data` in place.
    fn in_place(data: &'a mut [f64], grid: &Grid2d) -> Self {
        Self::new(data.chunks_mut(grid.y.n()).collect(), 0, grid)
    }

    /// Step from `t` until `t_end` exactly as the serial `run_until`
    /// loop does, returning the time reached.
    fn run(mut self, frame: &Frame, mut t: f64, t_end: f64, dt_max: f64) -> (f64, Result<()>) {
        while t < t_end - 1e-12 {
            let dt = dt_max.min(t_end - t);
            if let Err(e) = self.strang_step(frame, dt) {
                return (t, Err(e));
            }
            t += dt;
        }
        (t, Ok(()))
    }

    /// Aq(dt/2) Aν(dt/2) D(dt) Aν(dt/2) Aq(dt/2). A failing D fails on
    /// every slab alike (the factor depends only on the grid and dt), so
    /// no neighbour is left waiting on a halo.
    fn strang_step(&mut self, frame: &Frame, dt: f64) -> Result<()> {
        self.advect_q(frame, 0.5 * dt);
        self.swap_halos();
        self.advect_nu(frame, 0.5 * dt);
        self.diffuse(frame, dt)?;
        self.swap_halos();
        self.advect_nu(frame, 0.5 * dt);
        self.advect_q(frame, 0.5 * dt);
        Ok(())
    }

    /// Send the two edge rows to each neighbour, then receive theirs.
    fn swap_halos(&mut self) {
        let w = self.nu.len();
        if let Some(link) = &mut self.below {
            link.send(&self.cols, 0..HALO);
        }
        if let Some(link) = &mut self.above {
            link.send(&self.cols, w - HALO..w);
        }
        for link in [&mut self.below, &mut self.above].into_iter().flatten() {
            link.receive();
        }
    }

    /// q-advection of every row of the slab, in lockstep. Row `l` is the
    /// serial sweep with the constant velocity ν_l: the flux through face
    /// `m + 1` is formed from old cells, then cell `m` is updated.
    fn advect_q(&mut self, frame: &Frame, dt: f64) {
        with_phi!(frame.limiter, phi => self.advect_q_with(frame, dt, phi));
    }

    /// [`Slab::advect_q`] with the limiter's φ inlined.
    fn advect_q_with(&mut self, frame: &Frame, dt: f64, phi: impl Fn(f64) -> f64 + Copy) {
        let step = AdvectStep {
            dx: frame.dq,
            dt,
            limiter: frame.limiter,
        };
        let limited = frame.limiter != Limiter::Upwind;
        let ratio = dt / frame.dq;
        let Self {
            cols,
            nu,
            coef,
            old,
            flux_lo,
            ..
        } = self;
        for (c, &v) in coef.iter_mut().zip(nu.iter()) {
            *c = step.correction_coef(v);
        }
        flux_lo.fill(0.0);
        // ν grows with the row index: rows `..neg` move towards q = 0,
        // rows `pos..` away from it, and the rows between have ν = 0 and
        // are left untouched.
        let neg = nu.partition_point(|&v| v < 0.0);
        let pos = nu.partition_point(|&v| v <= 0.0);
        for m in 0..cols.len() {
            let (cur, rest) = cols[m..].split_first_mut().expect("m < nx");
            let Some((next, rest)) = rest.split_first() else {
                // The last cell: face nx is blocked.
                for rows in [0..neg, pos..cur.len()] {
                    for (f, &lo) in cur[rows.clone()].iter_mut().zip(&flux_lo[rows]) {
                        *f -= ratio * (0.0 - lo);
                    }
                }
                break;
            };
            // ν < 0: face m + 1's upwind cell is m + 1 and the one beyond
            // it m + 2, missing at the last interior face, which is then
            // first order (`next` stands in for it unread).
            let limited_neg = limited && !rest.is_empty();
            let next2: &[f64] = rest.first().map_or(next, |c| c);
            let lanes = cur[..neg]
                .iter_mut()
                .zip(next.iter().zip(next2))
                .zip(flux_lo[..neg].iter_mut().zip(nu.iter().zip(coef.iter())));
            for ((f, (&f1, &f2)), (lo, (&v, &c))) in lanes {
                let f0 = *f;
                let first = v * f1;
                let second = limited_flux(v, c, f2, f1, f0, phi);
                let hi = if limited_neg { second } else { first };
                *f = f0 - ratio * (hi - *lo);
                *lo = hi;
            }
            // ν > 0: the upwind cell is m and the one beyond it m − 1,
            // whose old value `old` kept; face 1 is first order.
            let limited_pos = limited && m >= 1;
            let lanes = cur[pos..]
                .iter_mut()
                .zip(&next[pos..])
                .zip(old[pos..].iter_mut().zip(flux_lo[pos..].iter_mut()))
                .zip(nu[pos..].iter().zip(&coef[pos..]));
            for (((f, &f1), (o, lo)), (&v, &c)) in lanes {
                let f0 = *f;
                let first = v * f0;
                let second = limited_flux(v, c, *o, f0, f1, phi);
                let hi = if limited_pos { second } else { first };
                *f = f0 - ratio * (hi - *lo);
                *o = f0;
                *lo = hi;
            }
        }
    }

    /// ν-advection of the slab's piece of every q-column, reading the
    /// halo cells beyond its edges.
    fn advect_nu(&mut self, frame: &Frame, dt: f64) {
        let step = AdvectStep {
            dx: frame.dnu,
            dt,
            limiter: frame.limiter,
        };
        let (ny, j0) = (frame.ny, self.j0);
        let j1 = j0 + self.nu.len();
        // The window starts at the first halo cell below the slab.
        let w0 = if self.below.is_some() { j0 - HALO } else { j0 };
        let Self {
            cols,
            window,
            flux_nu,
            below,
            above,
            ..
        } = self;
        for (i, col) in cols.iter_mut().enumerate() {
            let vel = &frame.vel_nu[i * (ny + 1) + j0..=i * (ny + 1) + j1];
            if below.is_none() && above.is_none() {
                face_fluxes(col, j0, ny, vel, j0, step, flux_nu);
            } else {
                window.clear();
                if let Some(link) = below {
                    window.extend_from_slice(link.column(i));
                }
                window.extend_from_slice(col);
                if let Some(link) = above {
                    window.extend_from_slice(link.column(i));
                }
                face_fluxes(window, w0, ny, vel, j0, step, flux_nu);
            }
            step.apply(col, flux_nu);
        }
    }

    /// q-diffusion of every row of the slab, in lockstep.
    fn diffuse(&mut self, frame: &Frame, dt: f64) -> Result<()> {
        if frame.sigma2 == 0.0 {
            return Ok(());
        }
        let d = 0.5 * frame.sigma2;
        let dq = frame.dq;
        match frame.diffusion {
            DiffusionScheme::Explicit => {
                let r = d * dt / (dq * dq);
                explicit_lanes(&mut self.cols, &mut self.old, r);
            }
            DiffusionScheme::CrankNicolson => {
                let r = 0.5 * d * dt / (dq * dq);
                let cn = match self.cn.take() {
                    Some(cn) if cn.r() == r => cn,
                    _ => CnFactor::new(self.cols.len(), r)?,
                };
                cn.solve_lanes(&mut self.cols, &mut self.old);
                self.cn = Some(cn);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::LinearExp;

    fn small_problem(sigma2: f64) -> (FpProblem<LinearExp>, Density) {
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let problem = FpProblem::new(law, 5.0, sigma2);
        let grid = Density::standard_grid(30.0, -5.0, 6.0, 60, 44).unwrap();
        let init = Density::gaussian(grid, 8.0, -1.0, 1.5, 0.8).unwrap();
        (problem, init)
    }

    #[test]
    fn mass_is_conserved_without_diffusion() {
        let (p, init) = small_problem(0.0);
        let m0 = init.mass();
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(5.0).unwrap();
        let m1 = s.density().mass();
        assert!((m1 - m0).abs() < 1e-10 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn mass_is_conserved_with_diffusion() {
        let (p, init) = small_problem(0.5);
        let m0 = init.mass();
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(5.0).unwrap();
        let m1 = s.density().mass();
        assert!((m1 - m0).abs() < 1e-9 * m0, "mass {m0} -> {m1}");
    }

    #[test]
    fn density_stays_non_negative() {
        let (p, init) = small_problem(0.2);
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(8.0).unwrap();
        assert!(
            s.density().min_value() >= -1e-12,
            "min value {}",
            s.density().min_value()
        );
    }

    #[test]
    fn mean_path_follows_fluid_for_small_sigma() {
        // With σ² ≈ 0 the density mean should track the deterministic
        // fluid trajectory (the PDE's characteristics).
        let law = LinearExp::new(1.0, 0.5, 10.0);
        let problem = FpProblem::new(law, 5.0, 1e-3);
        let grid = Density::standard_grid(30.0, -5.0, 6.0, 120, 88).unwrap();
        let init = Density::gaussian(grid, 8.0, -1.0, 0.8, 0.4).unwrap();
        let mut s = FpSolver::new(problem, init).unwrap();
        // Keep the horizon short enough that essentially no density mass
        // crosses the switching line q̂ = 10 (the fluid particle and the
        // density mean agree only while the law acts linearly on the
        // bulk; once mass straddles q̂ the joint density genuinely
        // departs from the single characteristic — that is the paper's
        // point, not an error).
        let t_end = 2.0;
        s.run_until(t_end).unwrap();
        let mean_q = s.density().mean_q();
        let mean_nu = s.density().mean_nu();

        let fluid = fpk_fluid_reference(8.0, -1.0 + 5.0, 5.0, law, t_end);
        assert!(
            (mean_q - fluid.0).abs() < 0.5,
            "FP mean_q {mean_q} vs fluid {}",
            fluid.0
        );
        assert!(
            (mean_nu - (fluid.1 - 5.0)).abs() < 0.4,
            "FP mean_nu {mean_nu} vs fluid ν {}",
            fluid.1 - 5.0
        );
    }

    /// Tiny local RK4 fluid reference to avoid a circular dev-dependency
    /// on fpk-fluid.
    fn fpk_fluid_reference(
        q0: f64,
        lambda0: f64,
        mu: f64,
        law: LinearExp,
        t_end: f64,
    ) -> (f64, f64) {
        use fpk_congestion::RateControl;
        let mut q = q0;
        let mut l = lambda0;
        let dt = 1e-4;
        let steps = (t_end / dt) as usize;
        for _ in 0..steps {
            let f = |q: f64, l: f64| {
                let qe = q.max(0.0);
                let dq = if qe <= 0.0 && l < mu { 0.0 } else { l - mu };
                (dq, law.g(qe, l))
            };
            let (k1q, k1l) = f(q, l);
            let (k2q, k2l) = f(q + 0.5 * dt * k1q, l + 0.5 * dt * k1l);
            let (k3q, k3l) = f(q + 0.5 * dt * k2q, l + 0.5 * dt * k2l);
            let (k4q, k4l) = f(q + dt * k3q, l + dt * k3l);
            q += dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q);
            l += dt / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l);
            q = q.max(0.0);
        }
        (q, l)
    }

    #[test]
    fn diffusion_spreads_q_variance() {
        // With g ≈ 0 (flat law far from threshold) and ν mass at 0, the
        // q-marginal should spread like a pure diffusion: var += σ²·t.
        let law = LinearExp::new(0.0, 0.5, 1e9); // threshold never crossed, C0 = 0
        let problem = FpProblem::new(law, 5.0, 0.8);
        let grid = Density::standard_grid(40.0, -1.0, 1.0, 160, 8).unwrap();
        let init = Density::gaussian(grid, 20.0, 0.0, 1.0, 0.1).unwrap();
        let v0 = init.var_q();
        let mut s = FpSolver::new(problem, init).unwrap();
        let t_end = 4.0;
        s.run_until(t_end).unwrap();
        let v1 = s.density().var_q();
        let expected = v0 + 0.8 * t_end;
        assert!(
            (v1 - expected).abs() < 0.15 * expected,
            "var {v0} -> {v1}, expected {expected}"
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let law = LinearExp::standard();
        let grid = Density::standard_grid(10.0, -2.0, 2.0, 10, 10).unwrap();
        let init = Density::gaussian(grid, 5.0, 0.0, 1.0, 0.5).unwrap();
        let mut p = FpProblem::new(law, 0.0, 0.1);
        assert!(FpSolver::new(p.clone(), init.clone()).is_err());
        p.mu = 5.0;
        p.sigma2 = -1.0;
        assert!(FpSolver::new(p.clone(), init.clone()).is_err());
        p.sigma2 = 0.1;
        p.cfl = 0.0;
        assert!(FpSolver::new(p, init).is_err());
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        let (p, init) = small_problem(0.1);
        let cases = [
            ("mu", f64::INFINITY, 0.1),
            ("mu", f64::NAN, 0.1),
            ("sigma2", 5.0, f64::NAN),
            ("sigma2", 5.0, f64::INFINITY),
        ];
        for (field, mu, sigma2) in cases {
            let mut bad = p.clone();
            bad.mu = mu;
            bad.sigma2 = sigma2;
            match FpSolver::new(bad, init.clone()) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains(field), "{field}: {context}");
                }
                Err(e) => panic!("mu = {mu}, sigma2 = {sigma2}: wrong error {e:?}"),
                Ok(_) => panic!("mu = {mu}, sigma2 = {sigma2} accepted"),
            }
        }
        let mut s = FpSolver::new(p, init).unwrap();
        for (t_end, workers) in [(f64::NAN, 1), (f64::NAN, 2), (f64::INFINITY, 2)] {
            match s.run_until_on(t_end, workers) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.contains("t_end"), "t_end = {t_end}: {context}");
                }
                other => panic!("t_end = {t_end}: expected InvalidParameter, got {other:?}"),
            }
            assert_eq!(s.time(), 0.0);
        }
    }

    #[test]
    fn run_until_rejects_past_times() {
        let (p, init) = small_problem(0.0);
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(1.0).unwrap();
        assert!(s.run_until(0.5).is_err());
    }

    #[test]
    fn max_dt_positive_and_respects_grid() {
        let (p, init) = small_problem(0.3);
        let s = FpSolver::new(p, init).unwrap();
        let dt = s.max_dt();
        assert!(dt > 0.0 && dt < 1.0, "dt = {dt}");
    }

    #[test]
    fn mass_drifts_toward_target_region() {
        // Start far below target with λ < μ: the controller should sweep
        // the density toward (q̂, ν = 0) over time.
        let (p, init) = small_problem(0.1);
        let q_hat = p.law.q_hat;
        let mut s = FpSolver::new(p, init).unwrap();
        s.run_until(40.0).unwrap();
        let mean_q = s.density().mean_q();
        let mean_nu = s.density().mean_nu();
        assert!(
            (mean_q - q_hat).abs() < 3.0,
            "mean q {mean_q} should approach q̂ = {q_hat}"
        );
        assert!(mean_nu.abs() < 1.0, "mean ν {mean_nu} should be near 0");
    }
}
