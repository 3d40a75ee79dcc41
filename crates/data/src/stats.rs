//! Heterogeneity statistics over partitioned data (Figure 7 and §4.7).
//!
//! Every function is generic over `Borrow<Dataset>` so callers can pass
//! either owned datasets (`&[Dataset]`) or the `Arc`-shared per-node
//! datasets a `DataBundle` holds (`&[Arc<Dataset>]`) without copying.

use crate::dataset::Dataset;
use std::borrow::Borrow;

/// Average number of distinct classes held per node.
pub fn mean_distinct_classes<D: Borrow<Dataset>>(node_datasets: &[D]) -> f64 {
    if node_datasets.is_empty() {
        return 0.0;
    }
    node_datasets
        .iter()
        .map(|d| d.borrow().distinct_classes() as f64)
        .sum::<f64>()
        / node_datasets.len() as f64
}

/// Mean total-variation distance between each node's label distribution and
/// the global label distribution. 0 = perfectly IID, →1 as skew grows.
pub fn label_skew<D: Borrow<Dataset>>(node_datasets: &[D]) -> f64 {
    if node_datasets.is_empty() {
        return 0.0;
    }
    let classes = node_datasets[0].borrow().num_classes();
    let mut global = vec![0.0f64; classes];
    let mut total = 0.0f64;
    for d in node_datasets {
        let d = d.borrow();
        for (g, c) in global.iter_mut().zip(d.class_histogram()) {
            *g += c as f64;
        }
        total += d.len() as f64;
    }
    for g in &mut global {
        *g /= total.max(1.0);
    }
    let mut acc = 0.0f64;
    for d in node_datasets {
        let d = d.borrow();
        let n = d.len().max(1) as f64;
        let tv: f64 = d
            .class_histogram()
            .iter()
            .zip(&global)
            .map(|(&c, &g)| (c as f64 / n - g).abs())
            .sum::<f64>()
            / 2.0;
        acc += tv;
    }
    acc / node_datasets.len() as f64
}

/// Rows for a Figure-7-style dot plot: `(node, class, count)` triples for
/// the first `max_nodes` nodes, skipping zero counts.
pub fn dot_plot_rows<D: Borrow<Dataset>>(
    node_datasets: &[D],
    max_nodes: usize,
) -> Vec<(usize, usize, usize)> {
    let mut rows = Vec::new();
    for (node, d) in node_datasets.iter().take(max_nodes).enumerate() {
        for (class, count) in d.borrow().class_histogram().into_iter().enumerate() {
            if count > 0 {
                rows.push((node, class, count));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrain_linalg::Matrix;

    fn single_class_node(class: u32, n: usize, classes: usize) -> Dataset {
        Dataset::new(Matrix::zeros(n, 2), vec![class; n], classes)
    }

    fn uniform_node(n_per_class: usize, classes: usize) -> Dataset {
        let n = n_per_class * classes;
        let labels = (0..n).map(|i| (i % classes) as u32).collect();
        Dataset::new(Matrix::zeros(n, 2), labels, classes)
    }

    #[test]
    fn skew_is_zero_for_identical_uniform_nodes() {
        let nodes = vec![uniform_node(5, 4), uniform_node(5, 4)];
        assert!(label_skew(&nodes) < 1e-9);
    }

    #[test]
    fn skew_is_high_for_single_class_nodes() {
        let nodes: Vec<Dataset> = (0..4).map(|c| single_class_node(c, 10, 4)).collect();
        let s = label_skew(&nodes);
        assert!(
            s > 0.7,
            "single-class nodes should be highly skewed, got {s}"
        );
    }

    #[test]
    fn distinct_class_means() {
        let nodes = vec![single_class_node(0, 5, 4), uniform_node(2, 4)];
        assert!((mean_distinct_classes(&nodes) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn dot_plot_skips_zeros_and_limits_nodes() {
        let nodes = vec![
            single_class_node(1, 3, 4),
            uniform_node(1, 4),
            uniform_node(1, 4),
        ];
        let rows = dot_plot_rows(&nodes, 2);
        assert!(rows.iter().all(|&(n, _, _)| n < 2));
        assert_eq!(rows.iter().filter(|&&(n, _, _)| n == 0).count(), 1);
        assert_eq!(rows.iter().filter(|&&(n, _, _)| n == 1).count(), 4);
    }
}
