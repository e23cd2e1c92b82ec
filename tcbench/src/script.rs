//! The seeded inputs of every workload. A run's request lines, their
//! send times and its update batches are functions of the workload and
//! the seed alone, so one seed always sends byte-identical lines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;
use tc_core::{DirectionScheme, OrderingScheme};
use tc_datasets::Dataset;
use tc_graph::CsrGraph;
use tc_stream::EdgeOp;

/// The benchmark's workloads, one per process run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm, read-only traffic whose variants all fit in the registry.
    ReadHot,
    /// Durable updates beside reads, with push subscriptions.
    WriteMixed,
    /// `count` over more preprocessed variants than the registry holds.
    PrepChurn,
    /// The paper's preprocessing × algorithm grid through `simulate`,
    /// with the registry disabled so every cell preprocesses. Its input
    /// is the grid itself, always in grid order: the resident-memory peak
    /// depends on the order cells run in.
    ReproGrid,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::WriteMixed,
        Workload::PrepChurn,
        Workload::ReproGrid,
    ];

    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::WriteMixed => "write-mixed",
            Workload::PrepChurn => "prep-churn",
            Workload::ReproGrid => "repro-grid",
        }
    }

    /// Inverse of [`name`](Workload::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The datasets the workload touches, hottest first.
    pub fn datasets(self) -> &'static [Dataset] {
        use Dataset::*;
        match self {
            Workload::ReadHot => &[EmailEucore, EmailEnron, EmailEuall, RoadCentral, CitPatent],
            Workload::WriteMixed => &[EmailEucore, EmailEnron, EmailEuall, KronLogn18],
            Workload::PrepChurn => &[
                EmailEnron,
                EmailEuall,
                RoadCentral,
                CitPatent,
                KronLogn18,
                Gowalla,
            ],
            Workload::ReproGrid => &[EmailEnron, RoadCentral, CitPatent, KronLogn18],
        }
    }
}

/// A preprocessed-graph variant: an edge-directing scheme and a vertex
/// ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    /// Edge-directing scheme.
    pub direction: DirectionScheme,
    /// Vertex ordering.
    pub ordering: OrderingScheme,
}

/// The paper's recommended preprocessing, and the server's default.
pub const PAPER: Variant = Variant {
    direction: DirectionScheme::ADirection,
    ordering: OrderingScheme::AOrder,
};

/// Simulated kernels of the repro grid, by wire name.
pub const GRID_ALGOS: [&str; 4] = ["polak", "tricore", "bisson", "hu"];

/// Candidates each `recommend` asks for.
pub const RECOMMEND_K: usize = 10;

/// Edge operations per `update`: half inserts, half deletes.
pub const UPDATE_OPS: usize = 16;

/// What a request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Exact triangle count of a variant.
    Count(Variant),
    /// Link recommendations for a source vertex.
    Recommend(u32),
    /// Clustering coefficients.
    Clustering,
    /// One batch of edge operations.
    Update(Vec<EdgeOp>),
    /// One repro-grid cell: preprocess, then simulate a kernel.
    Simulate(Variant, &'static str),
}

impl Op {
    /// The protocol op name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Count(_) => "count",
            Op::Recommend(_) => "recommend",
            Op::Clustering => "clustering",
            Op::Update(_) => "update",
            Op::Simulate(..) => "simulate",
        }
    }
}

/// One request and the line that carries it.
#[derive(Clone, Debug)]
pub struct Req {
    /// The dataset it is about.
    pub dataset: Dataset,
    /// The operation.
    pub op: Op,
    /// The wire line, without its newline.
    pub line: String,
}

impl Req {
    /// Renders `op` on `dataset` as a protocol line.
    pub fn new(dataset: Dataset, op: Op) -> Req {
        let d = dataset.name();
        let line = match &op {
            Op::Count(v) => format!(
                r#"{{"op":"count","dataset":"{d}","direction":"{}","ordering":"{}"}}"#,
                v.direction.name(),
                v.ordering.name()
            ),
            Op::Recommend(source) => format!(
                r#"{{"op":"recommend","dataset":"{d}","source":{source},"k":{RECOMMEND_K}}}"#
            ),
            Op::Clustering => format!(r#"{{"op":"clustering","dataset":"{d}"}}"#),
            Op::Update(ops) => {
                let edges: Vec<String> = ops
                    .iter()
                    .map(|op| match *op {
                        EdgeOp::Insert(u, v) => format!(r#"[{u},{v},"+"]"#),
                        EdgeOp::Delete(u, v) => format!(r#"[{u},{v},"-"]"#),
                    })
                    .collect();
                format!(
                    r#"{{"op":"update","dataset":"{d}","edges":[{}]}}"#,
                    edges.join(",")
                )
            }
            Op::Simulate(v, algo) => format!(
                r#"{{"op":"simulate","dataset":"{d}","algo":"{algo}","direction":"{}","ordering":"{}"}}"#,
                v.direction.name(),
                v.ordering.name()
            ),
        };
        Req { dataset, op, line }
    }
}

/// Derives an independent RNG stream from the run seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Zipf weights `1 / rank^s` over ranks `1..=n`.
fn zipf(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|rank| (rank as f64).powf(-s)).collect()
}

/// Draws with exact proportions: each cycle of `len` draws holds every
/// item its apportioned number of times, in a freshly shuffled order.
/// Stratifying keeps a run's request mix the same for every seed, so
/// seeds move the order of requests, not their composition.
#[derive(Debug)]
struct Deck {
    cards: Vec<usize>,
    next: usize,
    shuffled: bool,
}

impl Deck {
    /// Largest-remainder apportionment of `len` cards over `weights`.
    fn new(weights: &[f64], len: usize) -> Deck {
        let total: f64 = weights.iter().sum();
        let quotas: Vec<f64> = weights.iter().map(|w| w / total * len as f64).collect();
        let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
            rb.total_cmp(&ra).then(a.cmp(&b))
        });
        let short = len - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let cards = counts
            .iter()
            .enumerate()
            .flat_map(|(item, &n)| std::iter::repeat_n(item, n))
            .collect();
        Deck {
            cards,
            next: 0,
            shuffled: true,
        }
    }

    /// A deck that deals `0..n` in order, never shuffled.
    fn in_order(n: usize) -> Deck {
        Deck {
            cards: (0..n).collect(),
            next: 0,
            shuffled: false,
        }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == 0 && self.shuffled {
            shuffle(&mut self.cards, rng);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// The repro grid: every (dataset, direction, ordering) variant once,
/// with the four kernels rotated so each meets every dataset.
pub fn grid_cells() -> Vec<(Dataset, Variant, &'static str)> {
    let mut cells = Vec::new();
    for (i, &dataset) in Workload::ReproGrid.datasets().iter().enumerate() {
        let mut j = 0;
        for direction in [DirectionScheme::DegreeBased, DirectionScheme::ADirection] {
            for ordering in [
                OrderingScheme::Original,
                OrderingScheme::DegreeOrder,
                OrderingScheme::AOrder,
            ] {
                let variant = Variant {
                    direction,
                    ordering,
                };
                cells.push((dataset, variant, GRID_ALGOS[(i + j) % GRID_ALGOS.len()]));
                j += 1;
            }
        }
    }
    cells
}

/// The prep-churn variants, most popular first. The ranking is a
/// shuffle under a constant seed, so runs with different seeds share one
/// popularity order (and so one cost mix); the run seed only orders the
/// requests.
pub fn churn_variants() -> Vec<(Dataset, Variant)> {
    let mut variants = Vec::new();
    for &dataset in Workload::PrepChurn.datasets() {
        for direction in [
            DirectionScheme::IdBased,
            DirectionScheme::DegreeBased,
            DirectionScheme::ADirection,
        ] {
            for ordering in [
                OrderingScheme::Original,
                OrderingScheme::DegreeOrder,
                OrderingScheme::AOrder,
                OrderingScheme::Gro,
            ] {
                variants.push((
                    dataset,
                    Variant {
                        direction,
                        ordering,
                    },
                ));
            }
        }
    }
    shuffle(&mut variants, &mut rng(0x7C_BE4C, 0));
    variants
}

/// Which operation kind a deck card stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Count,
    Recommend,
    Clustering,
    Update,
    Simulate,
}

/// One side of the without-replacement update source for a dataset:
/// base edges to delete and fresh non-edges to insert. The two
/// connections draw from disjoint halves (deletes by index parity,
/// inserts by `u + v` parity), so no edge is touched twice in a run and
/// the final graph does not depend on the order batches apply in.
#[derive(Debug)]
struct EdgePool {
    deletes: Vec<(u32, u32)>,
    inserted: HashSet<(u32, u32)>,
    parity: u32,
}

impl EdgePool {
    fn new(g: &CsrGraph, conn: usize, rng: &mut StdRng) -> EdgePool {
        let mut deletes: Vec<(u32, u32)> = g
            .edges()
            .enumerate()
            .filter(|(i, _)| i % 2 == conn)
            .map(|(_, e)| e)
            .collect();
        shuffle(&mut deletes, rng);
        EdgePool {
            deletes,
            inserted: HashSet::new(),
            parity: conn as u32,
        }
    }

    fn insert(&mut self, g: &CsrGraph, rng: &mut StdRng) -> EdgeOp {
        let n = g.num_vertices() as u32;
        loop {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let (u, v) = (a.min(b), a.max(b));
            if u != v
                && (u + v) % 2 == self.parity
                && !g.has_edge(u, v)
                && self.inserted.insert((u, v))
            {
                return EdgeOp::Insert(u, v);
            }
        }
    }

    /// One batch: half deletes (inserts once the base edges run out),
    /// half inserts, shuffled.
    fn batch(&mut self, g: &CsrGraph, rng: &mut StdRng) -> Vec<EdgeOp> {
        let mut ops: Vec<EdgeOp> = (0..UPDATE_OPS)
            .map(|i| {
                let delete = if i % 2 == 0 { self.deletes.pop() } else { None };
                match delete {
                    Some((u, v)) => EdgeOp::Delete(u, v),
                    None => self.insert(g, rng),
                }
            })
            .collect();
        shuffle(&mut ops, rng);
        ops
    }
}

/// `n` batches on `g` drawn like write-mixed's updates, for probing the
/// write path of any workload's hottest dataset.
pub fn update_batches(g: &CsrGraph, seed: u64, n: usize) -> Vec<Vec<EdgeOp>> {
    let mut rng = rng(seed, 32);
    let mut pool = EdgePool::new(g, 0, &mut rng);
    (0..n).map(|_| pool.batch(g, &mut rng)).collect()
}

/// One connection's endless request stream for a workload.
pub struct Mix<'g> {
    workload: Workload,
    graphs: &'g [CsrGraph],
    rng: StdRng,
    kinds: Vec<Kind>,
    kind_deck: Deck,
    /// Per entry of `kinds`: which dataset (read-hot, write-mixed),
    /// variant (prep-churn) or cell (repro-grid) comes next.
    picks: Vec<Deck>,
    pools: Vec<EdgePool>,
    churn: Vec<(Dataset, Variant)>,
    cells: Vec<(Dataset, Variant, &'static str)>,
}

impl<'g> Mix<'g> {
    /// The stream connection `conn` sends; `graphs` are the workload's
    /// datasets in [`Workload::datasets`] order.
    pub fn new(workload: Workload, seed: u64, conn: usize, graphs: &'g [CsrGraph]) -> Mix<'g> {
        let mut rng = rng(seed, 16 + conn as u64);
        let n = workload.datasets().len();
        let datasets = || Deck::new(&zipf(n, 1.0), 20);
        let (kinds, weights, picks): (Vec<Kind>, Vec<f64>, Vec<Deck>) = match workload {
            // Static clustering goes to the hottest (and smallest) graph
            // only: one steady cost class, so the tail sits inside it
            // rather than on the edge between two datasets' costs.
            Workload::ReadHot => (
                vec![Kind::Count, Kind::Recommend, Kind::Clustering],
                vec![30.0, 19.0, 1.0],
                vec![datasets(), datasets(), Deck::new(&[1.0], 1)],
            ),
            Workload::WriteMixed => (
                vec![Kind::Update, Kind::Count, Kind::Recommend, Kind::Clustering],
                vec![3.0, 3.0, 3.0, 1.0],
                vec![datasets(), datasets(), datasets(), datasets()],
            ),
            Workload::PrepChurn => (
                vec![Kind::Count],
                vec![1.0],
                vec![Deck::new(&zipf(churn_variants().len(), 1.0), 500)],
            ),
            Workload::ReproGrid => (
                vec![Kind::Simulate],
                vec![1.0],
                vec![Deck::in_order(grid_cells().len())],
            ),
        };
        let total: f64 = weights.iter().sum();
        let kind_deck = Deck::new(&weights, total as usize);
        let pools = if workload == Workload::WriteMixed {
            graphs
                .iter()
                .map(|g| EdgePool::new(g, conn, &mut rng))
                .collect()
        } else {
            Vec::new()
        };
        Mix {
            workload,
            graphs,
            rng,
            kinds,
            kind_deck,
            picks,
            pools,
            churn: churn_variants(),
            cells: grid_cells(),
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let k = self.kind_deck.draw(&mut self.rng);
        let pick = self.picks[k].draw(&mut self.rng);
        let datasets = self.workload.datasets();
        match self.kinds[k] {
            Kind::Count if self.workload == Workload::PrepChurn => {
                let (dataset, variant) = self.churn[pick];
                Req::new(dataset, Op::Count(variant))
            }
            Kind::Count => Req::new(datasets[pick], Op::Count(PAPER)),
            Kind::Recommend => {
                let n = self.graphs[pick].num_vertices() as u32;
                let source = self.rng.gen_range(0..n);
                Req::new(datasets[pick], Op::Recommend(source))
            }
            Kind::Clustering => Req::new(datasets[pick], Op::Clustering),
            Kind::Update => {
                let ops = self.pools[pick].batch(&self.graphs[pick], &mut self.rng);
                Req::new(datasets[pick], Op::Update(ops))
            }
            Kind::Simulate => {
                let (dataset, variant, algo) = self.cells[pick];
                Req::new(dataset, Op::Simulate(variant, algo))
            }
        }
    }
}

/// Poisson arrival offsets at `rate` per second over `[0, horizon)`.
pub fn poisson(rng: &mut StdRng, rate: f64, horizon: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut times = Vec::new();
    loop {
        // Inverse-CDF exponential gap; 1 - u keeps ln away from 0.
        at += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if at >= horizon.as_secs_f64() {
            return times;
        }
        times.push(Duration::from_secs_f64(at));
    }
}

/// The open-loop schedule of one connection: Poisson arrivals at
/// `rate / 2` per second (the two connections together offer `rate`),
/// each carrying the connection's next request.
pub fn schedule(
    mix: &mut Mix<'_>,
    seed: u64,
    conn: usize,
    rate: f64,
    horizon: Duration,
) -> Vec<(Duration, Req)> {
    poisson(&mut rng(seed, conn as u64), rate / 2.0, horizon)
        .into_iter()
        .map(|at| (at, mix.next_req()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_service::protocol::{parse_request, Request};

    fn graphs(w: Workload) -> Vec<CsrGraph> {
        w.datasets().iter().map(|&d| tc_datasets::load(d)).collect()
    }

    fn script(w: Workload, seed: u64, graphs: &[CsrGraph]) -> Vec<String> {
        (0..2)
            .flat_map(|conn| {
                let mut mix = Mix::new(w, seed, conn, graphs);
                schedule(&mut mix, seed, conn, 400.0, Duration::from_millis(500))
                    .into_iter()
                    .map(|(at, req)| format!("{} {}", at.as_nanos(), req.line))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        for w in Workload::ALL {
            let g = graphs(w);
            let a = script(w, 7, &g);
            assert!(a.len() > 100, "{}", w.name());
            assert_eq!(a, script(w, 7, &g), "{}", w.name());
            assert_ne!(a, script(w, 8, &g), "{}", w.name());
        }
    }

    #[test]
    fn every_line_parses_to_the_request_it_describes() {
        for w in Workload::ALL {
            let g = graphs(w);
            let mut mix = Mix::new(w, 3, 1, &g);
            for _ in 0..300 {
                let req = mix.next_req();
                let parsed = parse_request(&req.line)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", req.line))
                    .request;
                assert_eq!(parsed.dataset(), Some(req.dataset), "{}", req.line);
                match (&req.op, parsed) {
                    (Op::Count(v), Request::Count(t))
                    | (Op::Simulate(v, _), Request::Simulate(t, _)) => {
                        assert_eq!((t.direction, t.ordering), (v.direction, v.ordering));
                    }
                    (Op::Recommend(s), Request::Recommend { source, k, .. }) => {
                        assert_eq!((source, k), (*s, RECOMMEND_K));
                    }
                    (Op::Clustering, Request::Clustering(_)) => {}
                    (Op::Update(ops), Request::Update { ops: parsed, .. }) => {
                        assert_eq!(&parsed, ops);
                    }
                    (op, parsed) => panic!("{op:?} parsed as {parsed:?}"),
                }
            }
        }
    }

    #[test]
    fn decks_keep_exact_proportions_per_cycle() {
        let mut deck = Deck::new(&zipf(5, 1.0), 20);
        let mut rng = rng(1, 0);
        for _ in 0..3 {
            let mut counts = [0; 5];
            for _ in 0..20 {
                counts[deck.draw(&mut rng)] += 1;
            }
            assert_eq!(counts, [9, 4, 3, 2, 2]);
        }
    }

    #[test]
    fn updates_never_touch_an_edge_twice() {
        let g = graphs(Workload::WriteMixed);
        let mut seen = HashSet::new();
        for conn in 0..2 {
            let mut mix = Mix::new(Workload::WriteMixed, 5, conn, &g);
            for _ in 0..2000 {
                let req = mix.next_req();
                if let Op::Update(ops) = &req.op {
                    assert_eq!(ops.len(), UPDATE_OPS);
                    for op in ops {
                        let (u, v) = op.endpoints();
                        assert!(seen.insert((req.dataset.name(), u, v)), "{op:?} twice");
                    }
                }
            }
        }
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let times = poisson(&mut rng(9, 0), 1000.0, Duration::from_secs(10));
        assert!((9_500..10_500).contains(&times.len()), "{}", times.len());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn grid_covers_every_variant_and_balances_kernels() {
        let cells = grid_cells();
        assert_eq!(cells.len(), 24);
        for algo in GRID_ALGOS {
            assert_eq!(cells.iter().filter(|c| c.2 == algo).count(), 6);
        }
        assert_eq!(churn_variants().len(), 72);
    }
}
