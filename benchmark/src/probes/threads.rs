use super::fft::test_field;
use super::{time_us, DomainProblem};
use crate::workloads::Layers;
use metascale_qmd::fft::Fft3d;
use metascale_qmd::util::workspace::Workspace;

/// What one parallel call costs over the same call run inline: an FFT on
/// the domain grid with the rayon shim at two threads, minus the same
/// transform at one (a forward + inverse pair is timed, so that the field
/// stays bounded, and halved).
pub fn probe(p: &DomainProblem, layers: &mut Layers) {
    let (nx, ny, nz) = p.setup.grid.dims();
    let fft = Fft3d::new(nx, ny, nz);
    let ws = Workspace::new();
    let mut field = test_field(&p.setup.grid);
    let mut at = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("the shim's pool construction cannot fail")
            .install(|| {
                time_us(|| {
                    fft.forward_with(&mut field, &ws);
                    fft.inverse_with(&mut field, &ws);
                })
            })
    };
    let (one, two) = (at(1), at(2));
    layers.set("threads.par_call_overhead_us", (two - one) / 2.0);
}
