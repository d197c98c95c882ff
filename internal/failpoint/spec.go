package failpoint

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// parseAction parses one action spec:
//
//	off | drop | delay | error | dup | partition | panic
//
// optionally followed by parenthesised comma-separated arguments. Arguments
// are either key=value pairs —
//
//	p=0.2        fire probability
//	n=100        fire at most 100 times
//	seed=7       probability-draw seed
//	d=2ms        delay duration
//	msg=boom     injected error message
//	peers=a|b    partitioned peers, pipe-separated
//
// — or a single positional value interpreted by kind: the duration for
// delay, the message for error, the peer list for partition. Examples:
//
//	drop
//	drop(p=0.2,seed=7)
//	delay(2ms)
//	delay(d=2ms,n=10)
//	error(connection refused)
//	dup(p=0.5)
//	partition(127.0.0.1:7101|127.0.0.1:7102)
//	panic
func parseAction(spec string) (Action, error) {
	spec = strings.TrimSpace(spec)
	name, args := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return Action{}, fmt.Errorf("failpoint: unbalanced parentheses in %q", spec)
		}
		name, args = spec[:i], spec[i+1:len(spec)-1]
	}
	var a Action
	switch strings.TrimSpace(name) {
	case "off":
		a.Kind = Off
	case "drop":
		a.Kind = Drop
	case "delay":
		a.Kind = Delay
	case "error":
		a.Kind = Error
	case "dup":
		a.Kind = Dup
	case "partition":
		a.Kind = Partition
	case "panic":
		a.Kind = Panic
	default:
		return Action{}, fmt.Errorf("failpoint: unknown action %q (want off|drop|delay|error|dup|partition|panic)", name)
	}
	if args != "" {
		for _, part := range strings.Split(args, ",") {
			if err := applyArg(&a, strings.TrimSpace(part)); err != nil {
				return Action{}, fmt.Errorf("failpoint: %q: %w", spec, err)
			}
		}
	}
	if err := a.Validate(); err != nil {
		return Action{}, err
	}
	return a, nil
}

// applyArg applies one argument (key=value or positional) to a.
func applyArg(a *Action, arg string) error {
	if arg == "" {
		return nil
	}
	key, val, kv := strings.Cut(arg, "=")
	if kv {
		switch strings.TrimSpace(key) {
		case "p":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("bad probability %q", val)
			}
			a.P = p
			return nil
		case "n":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("bad count %q", val)
			}
			a.Count = n
			return nil
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", val)
			}
			a.Seed = s
			return nil
		case "d":
			d, err := time.ParseDuration(val)
			if err != nil {
				return fmt.Errorf("bad duration %q", val)
			}
			a.Delay = d
			return nil
		case "msg":
			a.Err = val
			return nil
		case "peers":
			a.Peers = splitPeers(val)
			return nil
		}
		// An unknown key falls through to positional handling: an error
		// message may legitimately contain '=' ("error(code=7)").
	}
	switch a.Kind {
	case Delay:
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("bad duration %q", arg)
		}
		a.Delay = d
	case Error:
		a.Err = arg
	case Partition:
		a.Peers = splitPeers(arg)
	default:
		return fmt.Errorf("unexpected argument %q for %s", arg, a.Kind)
	}
	return nil
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, "|") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// formatAction renders a in the parseAction syntax (the /debug/failpoints
// display form). formatAction and parseAction round-trip.
func formatAction(a Action) string {
	var args []string
	if a.Kind == Delay && a.Delay > 0 {
		args = append(args, a.Delay.String())
	}
	if a.Err != "" {
		args = append(args, "msg="+a.Err)
	}
	if len(a.Peers) > 0 {
		args = append(args, "peers="+strings.Join(a.Peers, "|"))
	}
	if a.P > 0 && a.P < 1 {
		args = append(args, "p="+strconv.FormatFloat(a.P, 'g', -1, 64))
	}
	if a.Count > 0 {
		args = append(args, "n="+strconv.FormatInt(a.Count, 10))
	}
	if a.Seed != 0 {
		args = append(args, "seed="+strconv.FormatUint(a.Seed, 10))
	}
	if len(args) == 0 {
		return a.Kind.String()
	}
	return a.Kind.String() + "(" + strings.Join(args, ",") + ")"
}

// parseSet parses a semicolon-separated "name=action" list (the EnvVar and
// chaos-harness syntax) into a name → Action map.
func parseSet(spec string) (map[string]Action, error) {
	out := make(map[string]Action)
	for _, pair := range strings.Split(spec, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, actionSpec, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("failpoint: malformed entry %q (want name=action)", pair)
		}
		a, err := parseAction(actionSpec)
		if err != nil {
			return nil, err
		}
		out[name] = a
	}
	return out, nil
}
