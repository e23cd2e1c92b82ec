//! Helpers shared by the service's end-to-end suites.

/// Update batches for `g`, drawn by a fixed LCG, that together change
/// more edges than its compaction budget. Each batch deletes `per_batch`
/// base edges and inserts `per_batch` non-edges, each drawn with
/// repeats, and re-inserts `per_batch / 4` of the edges deleted so far,
/// in its own batch or an earlier one.
pub fn crossing_batches(
    g: &tc_graph::CsrGraph,
    per_batch: usize,
    batches: usize,
) -> Vec<Vec<(u32, u32, bool)>> {
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let n = g.num_vertices() as u64;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let mut deleted: Vec<(u32, u32)> = Vec::new();
    (0..batches)
        .map(|_| {
            let mut batch = Vec::new();
            for _ in 0..per_batch {
                let (u, v) = edges[next(edges.len() as u64) as usize];
                batch.push((u, v, false));
                deleted.push((u, v));
                let (u, v) = loop {
                    let (u, v) = (next(n) as u32, next(n) as u32);
                    if u != v && !g.has_edge(u, v) {
                        break (u, v);
                    }
                };
                batch.push((u, v, true));
            }
            for _ in 0..per_batch / 4 {
                let (u, v) = deleted[next(deleted.len() as u64) as usize];
                batch.push((u, v, true));
            }
            batch
        })
        .collect()
}

/// The `update` request line that applies `batch` to `dataset`.
pub fn update_line(dataset: &str, batch: &[(u32, u32, bool)]) -> String {
    let edges: Vec<String> = batch
        .iter()
        .map(|&(u, v, insert)| match insert {
            true => format!("[{u},{v}]"),
            false => format!(r#"[{u},{v},"-"]"#),
        })
        .collect();
    format!(
        r#"{{"op":"update","dataset":"{dataset}","edges":[{}]}}"#,
        edges.join(",")
    )
}
