// Fixture for the ctxpropagate analyzer: the executor/server cancellation
// contract. Blocking entrypoints thread ctx; context.Background() only
// inside Foo→FooContext wrappers; context.TODO() and nil contexts never;
// never the Foo wrapper where FooContext exists and a ctx is in scope.
package ctxpropagate

import "context"

// RunContext is the real entrypoint: it accepts and uses ctx. Not flagged.
func RunContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// Run is the sanctioned compatibility wrapper (Foo → FooContext with
// Background as the delegation argument): not flagged.
func Run(n int) int {
	return RunContext(context.Background(), n)
}

// Todo marks an unfinished migration: always flagged.
func Todo(n int) int {
	ctx := context.TODO() // want `context\.TODO\(\) in non-test code`
	return RunContext(ctx, n)
}

// Sever has no SeverContext variant, so its Background() cuts the caller's
// cancellation chain: flagged.
func Sever(n int) int {
	return RunContext(context.Background(), n) // want `context\.Background\(\) severs cancellation`
}

// NilCtx passes a nil context where RunContext expects one: flagged.
func NilCtx(n int) int {
	return RunContext(nil, n) // want `nil context passed`
}

// DropsCtx accepts a ctx and never threads it anywhere: flagged.
func DropsCtx(ctx context.Context, n int) int { // want `never uses its ctx parameter`
	return n
}

// BlankCtx discards the parameter outright: flagged.
func BlankCtx(_ context.Context, n int) int { // want `discards its ctx parameter`
	return n
}

// Detach documents its exception: a background rebuild outliving the request
// is the one sanctioned detachment, and the ignore absorbs the report.
func Detach(n int) int {
	//lint:ignore ctxpropagate rebuild runs beyond the request lifetime by design
	return RunContext(context.Background(), n)
}

// Index has a Context variant for its method Build.
type Index struct{}

func (ix *Index) Build(n int) int { return ix.BuildContext(context.Background(), n) }

func (ix *Index) BuildContext(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// Wrapped calls the non-Context wrappers while its own ctx is in scope,
// directly and from a closure: flagged, the calls drop ctx.
func Wrapped(ctx context.Context, ix *Index, n int) int {
	m := Run(n) // want `Run severs cancellation while a ctx is in scope`
	f := func() int {
		return ix.Build(m) // want `Build severs cancellation while a ctx is in scope`
	}
	return RunContext(ctx, f())
}

// NoCtx has no ctx to thread, so the wrappers are the right calls; and
// Threaded threads its ctx into the Context variants: neither is flagged.
func NoCtx(ix *Index, n int) int { return ix.Build(Run(n)) }

func Threaded(ctx context.Context, ix *Index, n int) int {
	return ix.BuildContext(ctx, RunContext(ctx, n))
}
