"""Independent straightforward tree walk used as the recursion oracle.

A minimal re-statement of the exploration contract with no budgets, no
step records and no shared state: visit a span, ask the policy whether it
is suspect against its sibling context, confirm with full log and metric
evidence, stop on confirmation, otherwise recurse into the suspicious
children. Tests compare its visited-span set against the engine's.
"""

from rootcause.agents import log_agent, metric_agent, trace_agent


def reference_visited(store, topology, policy, entry_span_id, t0, config):
    visited = []
    delta = config.window_ms // 2
    baseline_ms = int(config.baseline_minutes * 60_000)

    def cross_modal(span):
        logs = log_agent(
            store, t0, delta, span.cmdb_id,
            topology=topology, patterns=config.log_patterns,
        )
        metrics = metric_agent(
            store, topology, t0, delta, span.cmdb_id,
            n=config.n_sigma, baseline_ms=baseline_ms,
        )
        return logs, metrics

    def walk(span, sibling_calls):
        visited.append(span.span_id)
        calls = trace_agent(store, span.span_id)
        view = sibling_calls if sibling_calls is not None else calls
        if policy.suspect(span, view):
            logs, metrics = cross_modal(span)
            if policy.confirm(span, logs, metrics):
                return {span.span_id}
        found = set()
        for call in policy.suspicious_children(span, calls):
            found |= walk(store.span(call.child_span), calls)
        return found

    candidates = walk(store.span(entry_span_id), None)
    return visited, candidates
