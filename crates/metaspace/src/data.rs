//! Synthetic imaging-mass-spectrometry data.
//!
//! A real METASPACE input is an imzML scan: for every *pixel* of a
//! tissue section, a centroided spectrum — a list of (m/z, intensity)
//! peaks. The generator plants peaks in two populations:
//!
//! * **signal** peaks at the isotopic-pattern positions of a known set
//!   of formulas (so the annotation algorithm has something real to
//!   find), localised to a region of pixels;
//! * **noise** peaks at uniformly random m/z.
//!
//! This gives ground truth for correctness tests: formulas planted with
//! high intensity must be annotated, decoys must not.

use simkernel::SimRng;

/// One centroided peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Mass-to-charge ratio.
    pub mz: f64,
    /// Intensity.
    pub intensity: f32,
}

/// The spectrum of one pixel.
#[derive(Debug, Clone, Default)]
pub struct Spectrum {
    /// Peaks sorted by m/z.
    pub peaks: Vec<Peak>,
}

/// A full (small) IMS dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Per-pixel spectra, row-major over the tissue image.
    pub pixels: Vec<Spectrum>,
}

impl Dataset {
    /// Total number of peaks across pixels.
    pub fn peak_count(&self) -> usize {
        self.pixels.iter().map(|s| s.peaks.len()).sum()
    }
}

/// A molecular formula with its predicted isotopic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    /// Identifier (index in the database).
    pub id: u32,
    /// Monoisotopic m/z of the principal peak.
    pub base_mz: f64,
    /// Isotopic pattern: (m/z offset from base, relative intensity in
    /// (0, 1]), principal peak first.
    pub pattern: Vec<(f64, f32)>,
    /// Whether this is a decoy (implausible-adduct) formula used for FDR
    /// control.
    pub decoy: bool,
}

/// The m/z window instruments cover, used by generators and
/// segmentation.
pub const MZ_MIN: f64 = 100.0;
/// Upper end of the m/z window.
pub const MZ_MAX: f64 = 1000.0;

/// Generates a formula database: `targets` real formulas plus an equal
/// number of decoys (as METASPACE's FDR scheme requires).
pub fn generate_db(rng: &mut SimRng, targets: usize) -> Vec<Formula> {
    let mut db = Vec::with_capacity(targets * 2);
    for id in 0..(targets * 2) as u32 {
        let base_mz = rng.uniform(MZ_MIN, MZ_MAX - 4.0);
        // A 3-peak isotopic envelope: M, M+1, M+2 with decaying
        // intensity.
        let second = rng.uniform(0.2, 0.7) as f32;
        let pattern = vec![
            (0.0, 1.0),
            (1.003, second),
            (2.005, second * rng.uniform(0.2, 0.6) as f32),
        ];
        db.push(Formula {
            id,
            base_mz,
            pattern,
            decoy: id as usize >= targets,
        });
    }
    db
}

/// Parameters of the dataset generator.
#[derive(Debug, Clone)]
pub struct DatasetParams {
    /// Number of pixels.
    pub pixels: usize,
    /// Noise peaks per pixel.
    pub noise_peaks: usize,
    /// Fraction of pixels where planted formulas appear (a localised
    /// "tissue region").
    pub presence: f64,
    /// Instrument m/z jitter applied to planted peaks, in ppm.
    pub jitter_ppm: f64,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams {
            pixels: 64,
            noise_peaks: 60,
            presence: 0.6,
            jitter_ppm: 1.0,
        }
    }
}

/// Generates a dataset with the given formulas planted. Only non-decoy
/// formulas are planted, so decoys measure the false-discovery rate.
pub fn generate_dataset(
    rng: &mut SimRng,
    params: &DatasetParams,
    planted: &[Formula],
) -> Dataset {
    let mut pixels = Vec::with_capacity(params.pixels);
    for _ in 0..params.pixels {
        let mut peaks = Vec::with_capacity(params.noise_peaks + planted.len() * 3);
        for _ in 0..params.noise_peaks {
            peaks.push(Peak {
                mz: rng.uniform(MZ_MIN, MZ_MAX),
                intensity: rng.uniform(1.0, 50.0) as f32,
            });
        }
        for formula in planted.iter().filter(|f| !f.decoy) {
            if rng.uniform(0.0, 1.0) < params.presence {
                let scale = rng.uniform(100.0, 1000.0) as f32;
                for &(off, rel) in &formula.pattern {
                    let mz = formula.base_mz + off;
                    let jitter = mz * params.jitter_ppm * 1e-6 * rng.normal(0.0, 0.5);
                    peaks.push(Peak {
                        mz: mz + jitter,
                        intensity: scale * rel,
                    });
                }
            }
        }
        peaks.sort_by(|a, b| a.mz.total_cmp(&b.mz));
        pixels.push(Spectrum { peaks });
    }
    Dataset { pixels }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(77)
    }

    #[test]
    fn db_has_equal_targets_and_decoys() {
        let db = generate_db(&mut rng(), 50);
        assert_eq!(db.len(), 100);
        assert_eq!(db.iter().filter(|f| f.decoy).count(), 50);
        // IDs are unique.
        let mut ids: Vec<u32> = db.iter().map(|f| f.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn patterns_are_isotopic_envelopes() {
        let db = generate_db(&mut rng(), 10);
        for f in &db {
            assert_eq!(f.pattern.len(), 3);
            assert_eq!(f.pattern[0], (0.0, 1.0));
            assert!(f.pattern[1].1 < 1.0);
            assert!(f.pattern[2].1 < f.pattern[1].1);
            assert!((MZ_MIN..MZ_MAX).contains(&f.base_mz));
        }
    }

    #[test]
    fn dataset_spectra_are_sorted_by_mz() {
        let mut r = rng();
        let db = generate_db(&mut r, 20);
        let ds = generate_dataset(&mut r, &DatasetParams::default(), &db);
        assert_eq!(ds.pixels.len(), 64);
        for spectrum in &ds.pixels {
            assert!(spectrum
                .peaks
                .windows(2)
                .all(|w| w[0].mz <= w[1].mz));
        }
    }

    #[test]
    fn planted_formulas_appear_with_high_intensity() {
        let mut r = rng();
        let db = generate_db(&mut r, 5);
        let params = DatasetParams {
            presence: 1.0,
            ..DatasetParams::default()
        };
        let ds = generate_dataset(&mut r, &params, &db);
        let target = &db[0];
        // Every pixel should contain a strong peak near the target's
        // base m/z.
        let tol = target.base_mz * 5e-6;
        for spectrum in &ds.pixels {
            let hit = spectrum
                .peaks
                .iter()
                .any(|p| (p.mz - target.base_mz).abs() < tol && p.intensity > 50.0);
            assert!(hit, "planted peak missing in a pixel");
        }
    }

    #[test]
    fn decoys_are_not_planted() {
        let mut r = rng();
        let db = generate_db(&mut r, 5);
        let params = DatasetParams {
            noise_peaks: 0,
            presence: 1.0,
            ..DatasetParams::default()
        };
        let ds = generate_dataset(&mut r, &params, &db);
        let decoy = db.iter().find(|f| f.decoy).unwrap();
        let tol = decoy.base_mz * 5e-6;
        let hits = ds
            .pixels
            .iter()
            .flat_map(|s| s.peaks.iter())
            .filter(|p| (p.mz - decoy.base_mz).abs() < tol)
            .count();
        assert_eq!(hits, 0, "decoy formula appears in the data");
    }
}
