// Package adhocga reproduces "Evolution of Strategy Driven Behavior in Ad
// Hoc Networks Using a Genetic Algorithm" (Seredynski, Bouvry, Klopotek;
// IPDPS Workshops 2007) as a self-contained Go library.
//
// The paper proposes enforcing cooperation in mobile ad hoc networks by
// having every node run a 13-bit strategy that decides — from the packet
// source's trust level (watchdog-style reputation) and activity level —
// whether to forward or discard each packet. Strategies are evolved by a
// genetic algorithm inside a game-theoretic network model.
//
// The front door is the Session/Job API. A Session (NewSession, with
// functional options for pool size, default scale, seed policy, and a
// concurrent-job bound) owns one shared execution pool for its lifetime;
// every long-running workload is a typed JobSpec submitted with
// Submit(ctx, spec), returning a Job handle that streams a unified Event
// sequence through a bounded fan-out hub (Subscribe with per-subscription
// backpressure policies, Events as the archival shorthand), waits (Wait),
// and cancels cooperatively at generation barriers (Cancel) — so
// uncancelled runs stay bit-identical to the direct engines, and millions
// of users' worth of jobs can multiplex one process without
// oversubscribing it. cmd/adhocd serves exactly this API over HTTP,
// SSE, and WebSocket (internal/service).
//
// The workload kinds (each a JobSpec, each with a Session convenience
// method and a deprecated package-level wrapper over DefaultSession):
//
//   - EvolveSpec / Session.Evolve runs one evolutionary experiment and
//     returns the cooperation trajectory and final strategy population;
//   - IslandsSpec / Session.EvolveIslands runs it on the island-model
//     engine: the population sharded into subpopulations evolved
//     concurrently, with periodic elite migration over a pluggable
//     topology (ring, fully-connected, random-pairs) — deterministic for
//     a fixed seed at any parallelism level, bit-identical to Evolve
//     with one island;
//   - CaseSpec / Session.RunCase reproduces one of the paper's four
//     evaluation cases over repeated replications at a chosen scale;
//   - ScenariosSpec / Session.RunScenarios runs any batch of
//     declarative, JSON-serializable ScenarioSpecs — user-authored or
//     from the built-in registry (ScenarioFamilies: table4, csn-grid,
//     tournament-size, mixed-env, table4-islands, island-topology-sweep,
//     churn-sweep, adversary-grid) — every (scenario × replicate) pair
//     one work unit on the session pool, bit-identical at any
//     parallelism level; a spec's "islands" block routes it through the
//     island-model engine;
//   - SweepSpec / Session.CSNSweep traces evolved cooperation against
//     the selfish-node count;
//   - MixSpec / Session.RunMix plays fixed (non-evolved) behavior mixes
//     through the same network model for baseline comparisons;
//   - IPDRPSpec / Session.RunIPDRP evolves the IPDRP substrate the
//     paper's game generalizes.
//
// The simulation core is dense and allocation-free in steady state:
// NodeIDs are dense integers (enforced by tournament.BuildRegistry), so
// reputation memory is a flat NodeID-indexed slice with cached forwarding
// rates and Fig 1b trust levels maintained lazily on counter change, path
// rating consumes the store's dense []float64 rate view, and the game and
// tournament loops reuse scratch buffers instead of allocating — with
// results bit-identical to the original map-based implementation (golden
// tests pin the exact float bits). See DESIGN.md for the density
// invariant and the README "Performance" section for measurements.
//
// Implementation lives in internal/ packages (rng, bitstring, strategy,
// trust, network, game, tournament, ga, island, metrics, scenario,
// runner, experiment, baselines, ipdrp, service); this package
// re-exports the surface a downstream user needs. See README.md for the scenario API and
// CLI flags, ARCHITECTURE.md for the layer diagram and determinism
// contract, DESIGN.md for the system inventory, and cmd/experiments (run)
// and reproduction_test.go (assertions) for paper-vs-measured results.
package adhocga
