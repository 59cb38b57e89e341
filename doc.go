// Package nymix is a from-scratch reproduction of the Nymix
// anonymity-centric operating system architecture described in
// "Managing NymBoxes for Identity and Tracking Protection"
// (Wolinsky & Ford, 2014).
//
// Nymix gives users first-class control over pseudonyms, or nyms. Each
// nym is bound to a nymbox: a pair of virtual machines consisting of an
// AnonVM (the untrusted browsing environment) and a CommVM (the
// anonymizer, e.g. Tor), connected by a private virtual wire. A
// non-networked SaniVM scrubs files that cross from the installed OS
// into a nym, and nym state is quasi-persistent: compressed, encrypted,
// and stored anonymously in the cloud — either as a monolithic archive
// (internal/nymstate) or through NymVault (internal/vault), a
// content-addressed, deduplicating chunk store whose delta saves ship
// only what changed since the last session and replicate across
// multiple providers.
//
// Everything the paper's prototype relied on — QEMU/KVM, OverlayFS,
// KSM, a Tor test deployment on DeterLab, Chromium workloads, cloud
// providers, installed Windows images — is rebuilt here as a
// deterministic discrete-event simulation using only the standard
// library. See DESIGN.md for the system inventory; `nymbench -run
// summary` sets the abstract's headline claims beside the measured
// values.
//
// The primary entry point is the Nym Manager in internal/core. The
// cmd/nymbench binary regenerates every evaluation result, and
// cmd/nymixctl mirrors the paper's section 3.5 user workflow.
package nymix
