package cluster

import "nymix/internal/nymerr"

// Registered error codes for the cluster layer. Host-side failures
// arrive already typed from fleet/core; these codes cover placement,
// migration and the sweep coordinator.
var (
	// CodeUnknownHost: no pool member with that name.
	CodeUnknownHost = nymerr.Register("cluster.unknown_host",
		"no pool member with that name")
	// CodeUnknownNym: no launched nym with that name.
	CodeUnknownNym = nymerr.Register("cluster.unknown_nym",
		"no launched nym with that name")
	// CodeNeverPlaceable: the footprint exceeds every host's admissible
	// RAM budget.
	CodeNeverPlaceable = nymerr.Register("cluster.never_placeable",
		"footprint exceeds every host's admissible RAM budget")
	// CodeDuplicateNym: a nym with that name was already launched
	// cluster-wide.
	CodeDuplicateNym = nymerr.Register("cluster.duplicate_nym",
		"a nym with that name was already launched cluster-wide")
	// CodeRampDead: nothing in flight anywhere can close the gap to the
	// await target.
	CodeRampDead = nymerr.Register("cluster.ramp_dead",
		"nothing pending pool-wide and the running target is unreachable")
	// CodeAlreadyPlaced: the migration destination already runs the nym.
	CodeAlreadyPlaced = nymerr.Register("cluster.already_placed",
		"migration destination already runs the nym")
	// CodeMigrateConflict: another migration of the same nym is in
	// flight.
	CodeMigrateConflict = nymerr.Register("cluster.migrate_conflict",
		"another migration of the same nym is in flight")
	// CodeMigrateLost: the migration cannot proceed and has no vault
	// checkpoint to fall back to.
	CodeMigrateLost = nymerr.Register("cluster.migrate_lost",
		"migration cannot proceed and no vault checkpoint exists to carry")
	// CodeMigrateCrashFallback: the destination restore failed and the
	// nym was re-queued from its vault checkpoint — durable state
	// survived, the move did not.
	CodeMigrateCrashFallback = nymerr.Register("cluster.migrate_crash_fallback",
		"destination restore failed; nym re-queued from its vault checkpoint")
	// CodeSweepsRunning: a sweep coordinator is already installed.
	CodeSweepsRunning = nymerr.Register("cluster.sweeps_running",
		"a cluster sweep coordinator is already installed")
)

// Errors: typed sentinels kept as errors.Is targets for existing
// callers.
var (
	ErrUnknownHost    = nymerr.New(CodeUnknownHost, "cluster: unknown host")
	ErrUnknownNym     = nymerr.New(CodeUnknownNym, "cluster: unknown nym")
	ErrNeverPlaceable = nymerr.New(CodeNeverPlaceable, "cluster: footprint exceeds every host's admissible RAM")
)
