use super::{time_us, DomainProblem};
use crate::workloads::Layers;
use metascale_qmd::fft::Fft3d;
use metascale_qmd::grid::UniformGrid3;
use metascale_qmd::util::workspace::Workspace;
use metascale_qmd::util::Complex64;

/// A deterministic, non-trivial field on `grid`.
pub fn test_field(grid: &UniformGrid3) -> Vec<Complex64> {
    (0..grid.len())
        .map(|i| Complex64::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

/// Median microseconds of one forward + inverse transform pair on `grid`.
pub fn round_trip_us(grid: &UniformGrid3) -> f64 {
    let (nx, ny, nz) = grid.dims();
    let fft = Fft3d::new(nx, ny, nz);
    let ws = Workspace::new();
    let mut field = test_field(grid);
    time_us(|| {
        fft.forward_with(&mut field, &ws);
        fft.inverse_with(&mut field, &ws);
    })
}

pub fn probe(p: &DomainProblem, layers: &mut Layers) {
    layers.set("fft.domain_grid_us_p50", round_trip_us(&p.setup.grid));
    layers.set("fft.global_grid_us_p50", round_trip_us(&p.global_grid));
}
