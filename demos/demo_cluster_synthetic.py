"""Cluster the default synthetic TLS corpus with and without supervision.

Generates the 21-class corpus, runs plain k-means and the constrained,
metric-learning variant with 5 labeled examples per class, and prints the
evaluation for both. The constrained run recovers the reference
abstraction exactly; unsupervised k-means merges the near-twin classes
(FINISHED-IN vs FINISHED-OUT etc.) and splits the noisy ones.
"""

from protoabs import (
    MpckConfig,
    constraints_from_labels,
    default_synth_spec,
    draw_labeled_samples,
    evaluate,
    generate_synthetic,
    run_kmeans,
    run_mpck,
)


def main():
    corpus, labels = generate_synthetic(default_synth_spec())
    print("corpus: %d messages, %d reference classes" % (len(corpus), labels.n_classes))

    config = MpckConfig(k=labels.n_classes, seed=0)

    baseline = run_kmeans(corpus, config)
    rep = evaluate(baseline.assignments, labels)
    print("k-means        purity=%.3f ari=%.3f (%d iterations)"
          % (rep.purity, rep.ari, baseline.iterations))

    samples = draw_labeled_samples(labels, per_class=5, seed=0)
    constraints = constraints_from_labels(samples)
    print("%d labeled messages -> %d must-links, %d cannot-links"
          % (len(samples), *constraints.pair_counts()))

    model = run_mpck(corpus, constraints, config)
    rep = evaluate(model.assignments, labels)
    print("constrained    purity=%.3f ari=%.3f (%d iterations, objective %.1f)"
          % (rep.purity, rep.ari, model.iterations, model.objective))

    # The learned diagonal metrics explain the gap: fields that are constant
    # inside a cluster get large weights, so twin classes that differ in a
    # single field become well separated.
    w0 = model.metrics[0].weights
    print("cluster 0 weight range: %.2g .. %.2g" % (w0.min(), w0.max()))


if __name__ == "__main__":
    main()
