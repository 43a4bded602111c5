#!/usr/bin/env bash
# Schema check for Prometheus text exposition format on stdin.
#
# Validates the output of `trace_report --prom`:
#   * every line is either `# TYPE <name> <counter|gauge|histogram>` or a
#     sample `<name>[{key="value",...}] <number>`;
#   * every sample name was declared by a TYPE line (histogram samples via
#     their `_bucket`/`_sum`/`_count` suffixes, `_bucket` carrying an `le`
#     label, `+Inf` bucket equal to the series `_count`);
#   * histogram bucket counts are cumulative (non-decreasing per series);
#   * the cross-layer metrics the report must always contain are present.
#
# Usage: trace_report --prom | scripts/check_prometheus.sh
set -euo pipefail

# POSIX awk only (runs under mawk on CI): no 3-arg match, no length(array).
awk '
function fail(msg) { printf("line %d: %s\n  %s\n", NR, msg, $0); bad = 1 }

/^# TYPE / {
    if (NF != 4 || $3 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/ ||
        ($4 != "counter" && $4 != "gauge" && $4 != "histogram"))
        fail("malformed TYPE line")
    if (!($3 in type)) ndecl++
    type[$3] = $4
    next
}
/^#/ { next }
/^$/ { next }
{
    # Split "<name>[{labels}] <value>": the value is the last field; label
    # values never contain spaces in our exporter.
    value = $NF
    head = substr($0, 1, length($0) - length(value) - 1)
    if (value !~ /^([+-]Inf|NaN|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$/) {
        fail("unparseable value `" value "`"); next
    }
    labels = ""
    name = head
    brace = index(head, "{")
    if (brace > 0) {
        name = substr(head, 1, brace - 1)
        labels = substr(head, brace)
        if (labels !~ /^\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\}$/)
            fail("malformed label set `" labels "`")
    }
    if (name !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*$/) {
        fail("malformed metric name `" name "`"); next
    }

    base = name
    sub(/_(bucket|sum|count)$/, "", base)
    if (name in type) {
        if (type[name] == "histogram" && name !~ /_(bucket|sum|count)$/)
            fail("bare sample for histogram `" name "`")
        seen[name] = 1
    } else if (base in type && type[base] == "histogram") {
        seen[base] = 1
        if (name == base "_bucket") {
            if (labels !~ /le="/) fail("_bucket sample without le label")
            series = base labels
            sub(/,?le="[^"]*"/, "", series)
            if ((series in cum) && value + 0 < cum[series])
                fail("bucket counts not cumulative for `" series "`")
            cum[series] = value + 0
            if (labels ~ /le="\+Inf"/) inf[series] = value + 0
        }
        if (name == base "_count") {
            series = base labels
            if ((series in inf) && inf[series] != value + 0)
                fail("+Inf bucket != _count for `" series "`")
        }
    } else {
        fail("sample `" name "` has no TYPE declaration")
    }
}
END {
    n = split("netconf_edit_attempts_total tx_commits_total ctrl_sends_total " \
              "orchestrator_restorations_total telemetry_samples_total " \
              "planning_runs_total restore_runs_total solver_pivots_total " \
              "solver_factor_nonzeros_total solver_priced_nonzeros_total " \
              "physim_ber_evals_total", required, " ")
    for (i = 1; i <= n; i++)
        if (!(required[i] in seen)) {
            printf("missing required metric: %s\n", required[i]); bad = 1
        }
    if (bad) exit 1
    printf("prometheus schema OK: %d metric names declared\n", ndecl)
}
'
