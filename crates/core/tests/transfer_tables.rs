//! The transfer plan's table walks against the pointwise evaluation they
//! replaced: for random cells, domain lattices, buffers and spacings, the
//! tabulated gather (global → domain) and recombine (`ρ = Σα pα·ρα`, domain
//! → global) must equal `interpolate` / `support_at` + `to_local` +
//! `interpolate` **bitwise**, at one, two and four threads.
//!
//! `nd = 1` along an axis makes the domain the whole cell there (its buffer
//! is clamped to zero: it would overlap its own periodic image); `nd = 2`
//! makes both neighbours the same domain. Both are in the drawn range, and a
//! third of the cases snap the cell to half-Bohr multiples so that grid
//! planes land exactly on core and box faces.

use mqmd_core::transfer::TransferPlan;
use mqmd_grid::DomainDecomposition;
use mqmd_util::{Vec3, Xoshiro256pp};
use proptest::prelude::*;

fn random_field(rng: &mut Xoshiro256pp, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.uniform_in(-1.0, 2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_walks_equal_pointwise_evaluation_bitwise(
        lx in 5.0..11.0f64, ly in 5.0..11.0f64, lz in 5.0..11.0f64,
        snap in 0u8..3,
        ndx in 1usize..4, ndy in 1usize..4, ndz in 1usize..4,
        buffer in 0.0..2.5f64,
        global_spacing in 0.9..1.8f64,
        domain_spacing in 0.9..1.8f64,
        seed in any::<u64>(),
    ) {
        let round = |l: f64| if snap == 0 { (2.0 * l).round() / 2.0 } else { l };
        let cell = Vec3::new(round(lx), round(ly), round(lz));
        let nd = (ndx, ndy, ndz);
        let plan = TransferPlan::new(cell, nd, buffer, global_spacing, domain_spacing, 1.0);
        let dd = DomainDecomposition::new(cell, nd, buffer);
        let global_grid = plan.global_grid();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);

        // Gather: every domain, one random global field.
        let field = random_field(&mut rng, global_grid.len());
        for geometry in plan.domains() {
            let mut sampled = vec![f64::NAN; geometry.grid.len()];
            geometry.sample_global_field(&field, &mut sampled);
            let pointwise = geometry
                .grid
                .sample(|local| global_grid.interpolate(&field, geometry.domain.to_global(local)));
            for (i, (t, p)) in sampled.iter().zip(&pointwise).enumerate() {
                prop_assert_eq!(
                    t.to_bits(), p.to_bits(),
                    "gather, domain {} point {}: {} vs {}", geometry.domain.id, i, t, p
                );
            }
        }

        // Recombine: random domain densities; all domains present, then a
        // random subset (the domains one rank of several owns).
        let rho: Vec<Vec<f64>> = plan
            .domains()
            .iter()
            .map(|g| random_field(&mut rng, g.grid.len()))
            .collect();
        for subset in [false, true] {
            let rho_of: Vec<Option<&[f64]>> = rho
                .iter()
                .map(|r| (!subset || rng.below(2) == 0).then_some(r.as_slice()))
                .collect();
            let pointwise: Vec<f64> = (0..global_grid.len())
                .map(|flat| {
                    let (ix, iy, iz) = global_grid.coords(flat);
                    let r = global_grid.position(ix, iy, iz);
                    let mut acc = 0.0;
                    for (id, p) in dd.support_at(r) {
                        if let (Some(rho_a), Some(local)) = (rho_of[id], dd.domains()[id].to_local(r)) {
                            acc += p * plan.domains()[id].grid.interpolate(rho_a, local);
                        }
                    }
                    acc
                })
                .collect();
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("the shim's pool construction cannot fail");
                let mut out = vec![f64::NAN; global_grid.len()];
                pool.install(|| plan.partial_density(&rho_of, &mut out));
                for (flat, (t, p)) in out.iter().zip(&pointwise).enumerate() {
                    prop_assert_eq!(
                        t.to_bits(), p.to_bits(),
                        "recombine at {} threads, point {}: {} vs {}", threads, flat, t, p
                    );
                }
            }
        }
    }
}
