package nowsim

import (
	"fmt"
)

// EventKind tags entries of an episode's event log.
type EventKind int

const (
	// EventDispatch: the coordinator sent a period's work to the
	// borrowed workstation.
	EventDispatch EventKind = iota
	// EventCommit: a period completed and its results returned.
	EventCommit
	// EventKill: the owner returned mid-period, destroying it.
	EventKill
	// EventVoluntaryEnd: the policy declined to dispatch further work.
	EventVoluntaryEnd
	// EventSteal: a farm worker picked up tasks another worker lost to
	// its owner's return — work migrating across the farm.
	EventSteal
	// EventEpisodeStart: a farm worker began a cycle-stealing episode.
	EventEpisodeStart
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventDispatch:
		return "dispatch"
	case EventCommit:
		return "commit"
	case EventKill:
		return "kill"
	case EventVoluntaryEnd:
		return "voluntary-end"
	case EventSteal:
		return "steal"
	case EventEpisodeStart:
		return "episode-start"
	default:
		return "unknown"
	}
}

// EpisodeEvent is one entry of an episode's event log.
type EpisodeEvent struct {
	Time   float64
	Kind   EventKind
	Period int     // period index (-1 for voluntary end)
	Length float64 // period length for dispatch/commit/kill
}

// String renders the event for debugging output.
func (e EpisodeEvent) String() string {
	return fmt.Sprintf("t=%.4g %s period=%d len=%.4g", e.Time, e.Kind, e.Period, e.Length)
}
