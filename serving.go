package repro

import "repro/internal/serve"

// Serve is the registry-driven serving entry point: it builds a
// registered model by name and wraps it in a concurrency-safe Scorer in
// one call: the lock-free SnapshotScorer, publishing after every Learn
// unless an option sets the publish cadence or publish-on-change. A
// "race:dmt,vfdt,arf" spec builds a racer instead (see Race).
//
//	scorer, err := repro.Serve("DMT", schema,
//		repro.WithServeModelOptions(repro.WithSeed(42)),
//		repro.WithPublishEvery(4))
//	...
//	go trainLoop(scorer)       // scorer.Learn(batch)
//	preds = scorer.PredictBatch(rows, preds) // wait-free, any goroutine
func Serve(name string, schema Schema, opts ...ServeOption) (Scorer, error) {
	cfg := serve.Config{Model: name, Schema: schema}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return serve.New(cfg)
}

// MustServe is Serve for initialisation paths where a failure is fatal.
func MustServe(name string, schema Schema, opts ...ServeOption) Scorer {
	s, err := Serve(name, schema, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// ServeOption configures Serve (see the WithServe.../WithPublishEvery
// constructors).
type ServeOption func(*serve.Config)

// WithPublishEvery sets the snapshot publish cadence: the scorer clones
// and republishes its serving snapshot every n Learn calls (n <= 1 =
// every batch). Reads serve a state at most n-1 batches stale; cheap
// learners can publish every batch, expensive ones amortise the clone.
func WithPublishEvery(n int) ServeOption {
	return func(c *serve.Config) { c.PublishEvery = n }
}

// WithPublishOnChange republishes the serving snapshot only when the
// model's tree structure moved (a split, prune, replacement or member
// swap) instead of every WithPublishEvery batches. Structural events
// are orders of magnitude rarer than batches, so the clone-per-publish
// cost collapses; readers see leaf-parameter drift only at the next
// structural event or a forced Publish. Requires a model with a
// structure version — every tree learner and both ensembles; the
// structureless GLM and Naive Bayes baselines only support cadence
// publishing.
func WithPublishOnChange() ServeOption {
	return func(c *serve.Config) { c.PublishOnChange = true }
}

// WithServeModelOptions forwards functional model options (WithSeed,
// WithLearningRate, ...) to the underlying registry construction.
func WithServeModelOptions(opts ...Option) ServeOption {
	return func(c *serve.Config) { c.Options = append(c.Options, opts...) }
}
