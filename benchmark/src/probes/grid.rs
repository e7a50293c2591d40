use super::{time_us, Shape};
use crate::workloads::Layers;
use metascale_qmd::dft::solver::grid_for_cell;
use metascale_qmd::grid::DomainDecomposition;
use std::hint::black_box;

pub fn probe(shape: &Shape, layers: &mut Layers) {
    let (cell, cfg) = (shape.system.cell, &shape.cfg);
    layers.set(
        "grid.decompose_us_p50",
        time_us(|| {
            black_box(DomainDecomposition::new(
                black_box(cell),
                cfg.nd,
                cfg.buffer,
            ));
            black_box(grid_for_cell(cell, cfg.global_spacing));
        }),
    );
}
