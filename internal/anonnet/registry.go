package anonnet

import (
	"fmt"
	"sort"

	"nymix/internal/nymerr"
	"nymix/internal/vnet"
	"nymix/internal/webworld"
)

// Env is the world wiring a transport factory receives: the network
// fabric, the simulated Internet, and the nodes the transport speaks
// from. CommNode is the CommVM's attachment point (every client-side
// flow originates there); HostNode is the physical host's node, the
// NAT exit the incognito mode re-originates from. GuardSeed, when
// set, derives the Tor entry guard deterministically (section 3.5's
// fix for the ephemeral-loader intersection hole).
type Env struct {
	Net       *vnet.Network
	World     *webworld.World
	CommNode  string
	HostNode  string
	GuardSeed string
}

// Factory builds one transport instance for a nym.
type Factory func(Env) (Transport, error)

// TransportInfo describes a registered kind's static properties,
// readable without building an instance.
type TransportInfo struct {
	// IdleWireRate is the uplink rate in bytes per second the
	// transport transmits even when no request is in flight — the
	// mixnet's constant-rate cover traffic. Zero for demand-driven
	// transports. The fleet sums this figure into its standing
	// cover-traffic rate.
	IdleWireRate float64
}

type registration struct {
	info    TransportInfo
	factory Factory
}

var registry = map[string]registration{}

// RegisterTransport records a factory under a kind name. Transports
// self-register from init, so importing an implementation package is
// what makes its kind buildable. Duplicate kinds panic: two packages
// claiming one name is a wiring bug.
func RegisterTransport(kind string, info TransportInfo, f Factory) {
	if kind == "" || f == nil {
		panic("anonnet: RegisterTransport with empty kind or nil factory")
	}
	if _, dup := registry[kind]; dup {
		panic(fmt.Sprintf("anonnet: transport %q registered twice", kind))
	}
	registry[kind] = registration{info: info, factory: f}
}

// NewTransport builds a transport of the registered kind.
func NewTransport(kind string, env Env) (Transport, error) {
	reg, ok := registry[kind]
	if !ok {
		return nil, nymerr.Newf(CodeUnknownTransport, "anonnet: unknown transport %q", kind)
	}
	return reg.factory(env)
}

// IdleWireRate returns the registered kind's idle uplink rate in
// bytes per second (0 for unknown or demand-driven kinds).
func IdleWireRate(kind string) float64 { return registry[kind].info.IdleWireRate }

// TransportKinds returns the registered kind names, sorted.
func TransportKinds() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
