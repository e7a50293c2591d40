//! Discretisation helpers shared by every solver built on this crate: the
//! grid that covers a cell, and the `(pseudopotential, position)` pairs of
//! an [`AtomicSystem`].

use crate::species::Pseudopotential;
use mqmd_grid::UniformGrid3;
use mqmd_md::AtomicSystem;
use mqmd_util::Vec3;

/// Builds the power-of-two grid covering `cell` at the target spacing.
pub fn grid_for_cell(cell: Vec3, spacing: f64) -> UniformGrid3 {
    let pick = |l: f64| ((l / spacing).ceil() as usize).next_power_of_two().max(8);
    UniformGrid3::new(
        (pick(cell.x), pick(cell.y), pick(cell.z)),
        (cell.x, cell.y, cell.z),
    )
}

/// Converts an [`AtomicSystem`] to the `(pseudopotential, position)` pairs
/// the low-level API consumes.
pub fn atoms_of(system: &AtomicSystem) -> Vec<(Pseudopotential, Vec3)> {
    system
        .species
        .iter()
        .zip(&system.positions)
        .map(|(&e, &r)| (Pseudopotential::for_element(e), r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_for_cell_pow2_dims() {
        let g = grid_for_cell(Vec3::new(8.0, 12.0, 20.0), 1.0);
        let (nx, ny, nz) = g.dims();
        assert!(nx.is_power_of_two() && ny.is_power_of_two() && nz.is_power_of_two());
        assert!(nx >= 8 && ny >= 16 && nz >= 32);
    }
}
