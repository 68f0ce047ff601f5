//! Plain-text report formatting for analysis results.

use ser_netlist::{Circuit, NodeId};

/// Formats a per-node value table (name, value) sorted descending, top
/// `limit` rows, with a caption — handy for soft-spot listings.
pub fn format_ranked_table(
    circuit: &Circuit,
    caption: &str,
    values: &[f64],
    limit: usize,
) -> String {
    let mut rows: Vec<(NodeId, f64)> = circuit.gates().map(|g| (g, values[g.index()])).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.truncate(limit);
    let mut out = String::new();
    out.push_str(caption);
    out.push('\n');
    out.push_str(&format!("{:<16} {:>14}\n", "gate", "value"));
    for (id, v) in rows {
        out.push_str(&format!("{:<16} {:>14.4e}\n", circuit.node(id).name, v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ser_netlist::generate;

    #[test]
    fn ranked_table_has_caption_and_rows() {
        let c = generate::c17();
        let values: Vec<f64> = (0..c.node_count()).map(|i| i as f64).collect();
        let t = format_ranked_table(&c, "soft spots", &values, 3);
        assert!(t.starts_with("soft spots"));
        // caption + header + 3 rows
        assert_eq!(t.lines().count(), 5);
    }
}
