//! Deterministic stand-ins for the paper's evaluation datasets.
//!
//! The paper evaluates on SNAP and GraphChallenge graphs (its Table 4) plus
//! Kronecker synthetics. Those corpora are not available offline, so each
//! dataset is replaced by a seeded generator of the same structural class —
//! power-law social graphs, a near-lattice road network, a citation
//! network, Kronecker graphs — scaled down so every experiment finishes in
//! minutes. The paper's effects depend on degree-distribution *shape*
//! (skew drives workload imbalance; the short/long list mix drives
//! resource diversity), which the stand-ins preserve; identities of
//! individual vertices do not matter to any measured quantity.
//!
//! Every stand-in is pinned by a test: its vertex and edge counts and an
//! FNV-1a digest of its CSR offsets and neighbour ids, so the corpus
//! cannot drift by a single byte between runs or machines.

use tc_graph::generators::{
    power_law_configuration, preferential_attachment, rmat, road_lattice, watts_strogatz,
    RmatParams,
};
use tc_graph::CsrGraph;

/// The evaluation datasets (named after the paper's Table 4 rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 1.0k-node dense e-mail graph (paper: 934 nodes / 16K edges / 105K triangles).
    EmailEucore,
    /// Enron e-mail graph (paper: 37K / 368K over SNAP full; Table 5 uses it).
    EmailEnron,
    /// Sparse EU e-mail graph (paper: 265K / 729K / 267K triangles).
    EmailEuall,
    /// Gowalla location check-in graph (paper: 197K / 2M / 2.3M triangles).
    Gowalla,
    /// US-central road network (paper: 14M / 17M / 229K triangles).
    RoadCentral,
    /// Pokec social network (paper: 1.5M / 22M / 32.6M triangles).
    SocPokec,
    /// LiveJournal social (paper: 5M / 69M / 286M triangles).
    SocLj,
    /// LiveJournal communities (paper: 4M / 34M / 178M triangles).
    ComLj,
    /// Orkut social (paper: 3M / 117M / 628M triangles).
    ComOrkut,
    /// Patent citation graph (paper: 6M / 17M / 7.5M triangles).
    CitPatent,
    /// Wikipedia top categories (paper: 2M / 19M / 17.9M triangles).
    WikiTopcats,
    /// Kronecker scale-18 (paper: 25M / 25M / 282M triangles).
    KronLogn18,
    /// Kronecker scale-21 (paper: 201M / 201M / 1.77B triangles).
    KronLogn21,
    /// Small-world control (not in the paper; near-uniform degrees with
    /// many triangles — used by model-validation experiments).
    SmallWorld,
}

/// Static description of a stand-in.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    /// Paper's dataset name.
    pub name: &'static str,
    /// Structural class, for experiment tables.
    pub class: &'static str,
    /// Paper-reported size, for the EXPERIMENTS.md comparison.
    pub paper_nodes: u64,
    /// Paper-reported edge count.
    pub paper_edges: u64,
    /// Paper-reported triangle count (0 = not reported).
    pub paper_triangles: u64,
}

impl Dataset {
    /// All stand-ins in Table 4 order.
    pub fn all() -> Vec<Dataset> {
        use Dataset::*;
        vec![
            EmailEucore,
            EmailEnron,
            EmailEuall,
            Gowalla,
            RoadCentral,
            SocPokec,
            SocLj,
            ComLj,
            ComOrkut,
            CitPatent,
            WikiTopcats,
            KronLogn18,
            KronLogn21,
            SmallWorld,
        ]
    }

    /// The four datasets of the paper's Table 2.
    pub fn table2_suite() -> Vec<Dataset> {
        use Dataset::*;
        vec![Gowalla, CitPatent, RoadCentral, KronLogn21]
    }

    /// The ten datasets of the paper's Tables 5 and 6.
    pub fn table5_suite() -> Vec<Dataset> {
        use Dataset::*;
        vec![
            SocLj,
            CitPatent,
            ComLj,
            ComOrkut,
            EmailEnron,
            EmailEuall,
            Gowalla,
            WikiTopcats,
            KronLogn18,
            KronLogn21,
        ]
    }

    /// A small suite for fast experiments and CI.
    pub fn small_suite() -> Vec<Dataset> {
        use Dataset::*;
        vec![EmailEucore, EmailEnron, Gowalla, KronLogn18]
    }

    /// This stand-in's static description.
    pub fn spec(&self) -> DatasetSpec {
        use Dataset::*;
        match self {
            EmailEucore => DatasetSpec {
                name: "email-Eucore",
                class: "dense e-mail",
                paper_nodes: 934,
                paper_edges: 16_000,
                paper_triangles: 105_461,
            },
            EmailEnron => DatasetSpec {
                name: "email-Enron",
                class: "e-mail",
                paper_nodes: 36_692,
                paper_edges: 183_831,
                paper_triangles: 727_044,
            },
            EmailEuall => DatasetSpec {
                name: "email-Euall",
                class: "sparse e-mail",
                paper_nodes: 265_000,
                paper_edges: 729_000,
                paper_triangles: 267_313,
            },
            Gowalla => DatasetSpec {
                name: "gowalla",
                class: "location social",
                paper_nodes: 197_000,
                paper_edges: 2_000_000,
                paper_triangles: 2_273_138,
            },
            RoadCentral => DatasetSpec {
                name: "road_central",
                class: "road network",
                paper_nodes: 14_000_000,
                paper_edges: 17_000_000,
                paper_triangles: 228_918,
            },
            SocPokec => DatasetSpec {
                name: "soc-pokec",
                class: "social",
                paper_nodes: 1_500_000,
                paper_edges: 22_000_000,
                paper_triangles: 32_557_458,
            },
            SocLj => DatasetSpec {
                name: "soc-LJ",
                class: "social",
                paper_nodes: 5_000_000,
                paper_edges: 69_000_000,
                paper_triangles: 285_730_264,
            },
            ComLj => DatasetSpec {
                name: "com-LJ",
                class: "social communities",
                paper_nodes: 4_000_000,
                paper_edges: 34_000_000,
                paper_triangles: 177_820_130,
            },
            ComOrkut => DatasetSpec {
                name: "com-orkut",
                class: "dense social",
                paper_nodes: 3_000_000,
                paper_edges: 117_000_000,
                paper_triangles: 627_584_181,
            },
            CitPatent => DatasetSpec {
                name: "cit-Patent",
                class: "citation",
                paper_nodes: 6_000_000,
                paper_edges: 17_000_000,
                paper_triangles: 7_515_023,
            },
            WikiTopcats => DatasetSpec {
                name: "wiki-topcats",
                class: "web",
                paper_nodes: 2_000_000,
                paper_edges: 19_000_000,
                paper_triangles: 17_864_012,
            },
            KronLogn18 => DatasetSpec {
                name: "kron-logn18",
                class: "Kronecker",
                paper_nodes: 25_000_000,
                paper_edges: 25_000_000,
                paper_triangles: 281_814_846,
            },
            KronLogn21 => DatasetSpec {
                name: "kron-logn21",
                class: "Kronecker",
                paper_nodes: 201_000_000,
                paper_edges: 201_000_000,
                paper_triangles: 1_765_053_740,
            },
            SmallWorld => DatasetSpec {
                name: "small-world",
                class: "control (not in paper)",
                paper_nodes: 0,
                paper_edges: 0,
                paper_triangles: 0,
            },
        }
    }

    /// Paper's dataset name.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }
}

/// Generates the stand-in graph for a dataset (deterministic).
pub fn load(dataset: Dataset) -> CsrGraph {
    use Dataset::*;
    match dataset {
        // Skewed social/e-mail graphs: configuration model with class-
        // appropriate exponent and density.
        EmailEucore => power_law_configuration(1_000, 1.9, 32.0, 0xEC01),
        EmailEnron => power_law_configuration(12_000, 2.1, 15.0, 0xE401),
        EmailEuall => power_law_configuration(30_000, 2.4, 5.5, 0xE902),
        Gowalla => power_law_configuration(40_000, 2.3, 16.0, 0x90A1),
        // Road network: near-uniform tiny degrees, almost no triangles.
        RoadCentral => road_lattice(350, 350, 0.04, 0.28, 0x40AD),
        // Social graphs at scale: R-MAT with the graph500 parameters.
        SocPokec => rmat(16, 9, RmatParams::default(), 0x40EC),
        SocLj => rmat(17, 8, RmatParams::default(), 0x50C1),
        ComLj => rmat(16, 8, RmatParams::default(), 0xC0B1),
        ComOrkut => rmat(16, 16, RmatParams::default(), 0x04C7),
        // Citation: preferential attachment (heavy tail, DAG-like growth).
        CitPatent => preferential_attachment(80_000, 4, 0xC172),
        WikiTopcats => rmat(15, 9, RmatParams::default(), 0x817C),
        KronLogn18 => rmat(14, 8, RmatParams::default(), 0xC018),
        KronLogn21 => rmat(16, 8, RmatParams::default(), 0xC021),
        SmallWorld => watts_strogatz(30_000, 5, 0.05, 0x5311),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_algos::cpu;
    use tc_graph::stats::degree_stats;

    #[test]
    fn all_datasets_load_and_validate() {
        for d in Dataset::all() {
            let g = load(d);
            assert!(g.num_vertices() > 0, "{}", d.name());
            assert!(g.validate().is_ok(), "{}", d.name());
        }
    }

    /// Pinned sizes and FNV-1a digests of the CSR arrays: the corpus must
    /// not drift by a single byte across releases or machines.
    #[test]
    fn pinned_sizes() {
        let expected: Vec<(Dataset, usize, usize, u64)> = vec![
            (Dataset::EmailEucore, 1_000, 11_067, 0xd879_3013_eacd_751a),
            (Dataset::EmailEnron, 12_000, 77_954, 0x150c_6843_11c7_91b9),
            (Dataset::EmailEuall, 30_000, 84_870, 0xdcc9_4328_77c6_db91),
            (Dataset::Gowalla, 40_000, 295_205, 0xcf2b_6101_e6c2_b110),
            (
                Dataset::RoadCentral,
                122_500,
                181_098,
                0x91f6_0fda_c590_8857,
            ),
            (Dataset::SocPokec, 65_536, 533_385, 0x6793_0fc9_29fe_bd84),
            (Dataset::SocLj, 131_072, 971_528, 0x4692_22bb_512f_9bbf),
            (Dataset::ComLj, 65_536, 477_492, 0x562a_8a98_cf40_f0b4),
            (Dataset::ComOrkut, 65_536, 908_778, 0x6eff_d343_cb31_9c11),
            (Dataset::CitPatent, 80_000, 319_990, 0x059f_b538_3201_5490),
            (Dataset::WikiTopcats, 32_768, 260_758, 0x1614_b2ee_fbd2_b223),
            (Dataset::KronLogn18, 16_384, 114_352, 0xfc5c_4bea_1904_43fd),
            (Dataset::KronLogn21, 65_536, 477_625, 0x4334_8241_f324_b2b4),
            (Dataset::SmallWorld, 30_000, 149_995, 0x679d_ea3b_3843_5497),
        ];
        for (d, nodes, edges, fnv) in expected {
            let g = load(d);
            assert_eq!(g.num_vertices(), nodes, "{} nodes", d.name());
            assert_eq!(g.num_edges(), edges, "{} edges", d.name());
            assert_eq!(digest(&g), fnv, "{} CSR digest", d.name());
        }
    }

    /// FNV-1a over the offsets (each as a little-endian `u64`), then the
    /// neighbour ids (each as a little-endian `u32`).
    fn digest(g: &CsrGraph) -> u64 {
        let offsets = g.offsets().iter().flat_map(|&o| (o as u64).to_le_bytes());
        let neighbors = g.neighbor_array().iter().flat_map(|v| v.to_le_bytes());
        offsets
            .chain(neighbors)
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Structural-class sanity: skew where the paper's graph is skewed,
    /// uniformity where it is uniform.
    #[test]
    fn degree_shapes_match_classes() {
        let social = degree_stats(&load(Dataset::Gowalla));
        let road = degree_stats(&load(Dataset::RoadCentral));
        let kron = degree_stats(&load(Dataset::KronLogn18));
        assert!(social.cv > 1.0, "social graphs are skewed: {}", social.cv);
        assert!(
            kron.cv > 1.5,
            "Kronecker graphs are very skewed: {}",
            kron.cv
        );
        assert!(road.cv < 0.5, "road networks are uniform: {}", road.cv);
        assert!(road.max <= 8, "road max degree {}", road.max);
    }

    #[test]
    fn road_network_is_triangle_sparse() {
        let road = load(Dataset::RoadCentral);
        let tri = cpu::forward(&road);
        // Paper: 17M edges → 229K triangles (ratio ~1.3%). Ours must also
        // be a tiny fraction of the edge count.
        assert!(
            (tri as f64) < 0.1 * road.num_edges() as f64,
            "road stand-in has too many triangles: {tri}"
        );
    }

    #[test]
    fn dense_email_core_is_triangle_rich() {
        let g = load(Dataset::EmailEucore);
        let tri = cpu::forward(&g);
        assert!(
            tri as f64 > 2.0 * g.num_edges() as f64,
            "eucore stand-in should be triangle-rich, got {tri}"
        );
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(load(Dataset::Gowalla), load(Dataset::Gowalla));
    }

    #[test]
    fn suites_are_subsets_of_all() {
        let all = Dataset::all();
        for d in Dataset::table2_suite()
            .into_iter()
            .chain(Dataset::table5_suite())
            .chain(Dataset::small_suite())
        {
            assert!(all.contains(&d));
        }
    }
}
