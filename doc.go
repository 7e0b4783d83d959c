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
// oversubscribing it. Events are the only way to observe a job: each
// engine's run entry takes the job's emit function and builds the events
// itself, and no engine config or RunOptions field carries a callback a
// caller could set. cmd/adhocd serves exactly
// this API over HTTP, SSE, and WebSocket (internal/service), through one
// delivery loop for all three transports.
//
// The workload kinds, each a JobSpec for Session.Submit (the batch, mix
// and league kinds also have a Session method that submits and waits):
//
//   - EvolveSpec runs one evolutionary experiment and returns the
//     cooperation trajectory and final strategy population;
//   - IslandsSpec runs it on the island-model engine: the population
//     sharded into subpopulations evolved concurrently, with periodic
//     elite migration over a pluggable topology (ring, fully-connected,
//     random-pairs) — deterministic for a fixed seed at any parallelism
//     level, bit-identical to EvolveSpec with one island;
//   - ScenariosSpec / Session.RunScenarios runs any batch of
//     declarative, JSON-serializable ScenarioSpecs — user-authored or
//     from the built-in registry (ScenarioFamilyByName: table4, csn-grid,
//     tournament-size, mixed-env, table4-islands, island-topology-sweep,
//     churn-sweep, adversary-grid) — every (scenario × replicate) pair
//     one work unit on the session pool, bit-identical at any
//     parallelism level; a spec's "islands" block routes it through the
//     island-model engine. The paper's four evaluation cases are the
//     table4 family and its CSN sweep is a batch of single-environment
//     specs, so both run here;
//   - MixSpec / Session.RunMix plays fixed (non-evolved) behavior mixes
//     through the same network model for baseline comparisons;
//   - IPDRPSpec evolves the IPDRP substrate the paper's game
//     generalizes;
//   - LeagueJobSpec / Session.RunLeague plays a round-robin league of
//     archived champions and scripted baselines.
//
// The simulation core is dense and allocation-free in steady state:
// NodeIDs are dense integers (enforced by tournament.BuildRegistry), so
// reputation memory is a flat NodeID-indexed slice of counters; each
// tournament gathers its participants' counters about each other into a
// slot-indexed T×T matrix, plays every round on it in one game loop, and
// scatters it back — with results bit-identical to the original
// map-based implementation (golden tests pin the exact float bits). See DESIGN.md for the density
// invariant and the README "Performance" section for measurements.
//
// Implementation lives in internal/ packages (rng, bitstring, strategy,
// trust, network, game, tournament, ga, island, metrics, scenario,
// runner, experiment, baselines, ipdrp, service); this package
// re-exports the surface a downstream user needs. See README.md for the scenario API and
// CLI flags, ARCHITECTURE.md for the layer diagram and determinism
// contract, DESIGN.md for the system inventory, and the adhocga
// experiments subcommand (cmd/adhocga, run) and reproduction_test.go
// (assertions) for paper-vs-measured results.
package adhocga
