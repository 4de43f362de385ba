#!/bin/sh
# serve-smoke: build strudel-serve, serve a tiny site, probe it, and
# assert a clean graceful shutdown on SIGTERM. This is the end-to-end
# check that the real binary — flags, listener, reload loop, signal
# handling — works, not just the packages behind it.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/strudel-serve" ./cmd/strudel-serve

cat > "$workdir/site.ddl" <<'EOF'
collection Pubs;
node p1 in Pubs { title "Catching the Boat"; year 1998; }
node p2 in Pubs { title "Strudel"; year 1997; }
EOF

cat > "$workdir/site.struql" <<'EOF'
create Root()
link Root() -> "title" -> "Smoke Site"
where Pubs(x)
create Page(x)
link Root() -> "pub" -> Page(x)
{ where x -> "title" -> t link Page(x) -> "title" -> t }
EOF

addr="127.0.0.1:18473"
debugaddr="127.0.0.1:18474"
"$workdir/strudel-serve" \
    -data "$workdir/site.ddl" -query "$workdir/site.struql" \
    -addr "$addr" -debug-addr "$debugaddr" \
    -shards 2 -replicas 2 -stale-for 0 \
    -reload-interval 200ms -shutdown-timeout 5s \
    > "$workdir/serve.log" 2>&1 &
pid=$!

# Wait for the server to come up.
up=""
for _ in $(seq 1 50); do
    if curl -fsS "http://$addr/healthz" > "$workdir/healthz.json" 2>/dev/null; then
        up=1
        break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: server exited early" >&2
        cat "$workdir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$up" ]; then
    echo "serve-smoke: server never came up" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi

grep -q '"status":"ok"' "$workdir/healthz.json" || {
    echo "serve-smoke: /healthz not ok:" >&2
    cat "$workdir/healthz.json" >&2
    exit 1
}

curl -fsS "http://$addr/" | grep -q "Smoke Site" || {
    echo "serve-smoke: / did not serve the root page" >&2
    exit 1
}

# Conditional GETs: the edge tags every page with a generation-scoped
# ETag; a matching If-None-Match must earn a bodyless 304.
curl -fsS -D "$workdir/h1.txt" -o /dev/null "http://$addr/"
etag=$(tr -d '\r' < "$workdir/h1.txt" | awk 'tolower($1)=="etag:"{print $2}')
if [ -z "$etag" ]; then
    echo "serve-smoke: / served no ETag" >&2
    cat "$workdir/h1.txt" >&2
    exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "http://$addr/")
if [ "$code" != "304" ]; then
    echo "serve-smoke: conditional GET with matching ETag got HTTP $code, want 304" >&2
    exit 1
fi

# A hot reload bumps the generation, which must invalidate every held
# validator: edit the watched data file, then poll until the same
# conditional GET turns back into a full 200 with a fresh ETag.
cat >> "$workdir/site.ddl" <<'EOF'
node p3 in Pubs { title "Reloaded Entry"; year 1999; }
EOF
reloaded=""
for _ in $(seq 1 50); do
    code=$(curl -s -D "$workdir/h2.txt" -o "$workdir/after.html" -w '%{http_code}' \
        -H "If-None-Match: $etag" "http://$addr/")
    if [ "$code" = "200" ]; then
        reloaded=1
        break
    fi
    sleep 0.2
done
if [ -z "$reloaded" ]; then
    echo "serve-smoke: conditional GET never turned 200 after the reload" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
etag2=$(tr -d '\r' < "$workdir/h2.txt" | awk 'tolower($1)=="etag:"{print $2}')
if [ -z "$etag2" ] || [ "$etag2" = "$etag" ]; then
    echo "serve-smoke: reload did not mint a new ETag (old=$etag new=$etag2)" >&2
    exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag2" "http://$addr/")
if [ "$code" != "304" ]; then
    echo "serve-smoke: conditional GET with post-reload ETag got HTTP $code, want 304" >&2
    exit 1
fi

# Debug endpoints live on the debug listener ONLY: the production
# listener must 404 them, the -debug-addr listener must serve them.
for path in /debug/vars /debug/pprof/; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr$path")
    if [ "$code" != "404" ]; then
        echo "serve-smoke: production listener served $path (HTTP $code), want 404" >&2
        exit 1
    fi
done
curl -fsS "http://$debugaddr/debug/vars" > "$workdir/vars.json" || {
    echo "serve-smoke: debug listener did not serve /debug/vars" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}
grep -q '"strudel"' "$workdir/vars.json" || {
    echo "serve-smoke: /debug/vars missing strudel metrics:" >&2
    cat "$workdir/vars.json" >&2
    exit 1
}
# The incremental-maintenance group must be exported alongside "serve":
# delta counters, bailout reasons, and the patch-latency histogram.
for key in '"ivm"' '"deltas_applied"' '"bailout_delta_too_large"' '"dirty_pages"' '"apply_nanos"'; do
    grep -q "$key" "$workdir/vars.json" || {
        echo "serve-smoke: /debug/vars missing ivm metric $key:" >&2
        cat "$workdir/vars.json" >&2
        exit 1
    }
done
# The sharded serving tier exports its own metric group: edge cache
# counters, the fleet generation (bumped by the reload above), and the
# front door's refusal counters.
for key in '"fleet"' '"edge_requests"' '"not_modified"' '"generation"' '"swaps"' \
    '"edge_nanos"' '"shed"' '"timeouts"' '"panics"'; do
    grep -q "$key" "$workdir/vars.json" || {
        echo "serve-smoke: /debug/vars missing fleet metric $key:" >&2
        cat "$workdir/vars.json" >&2
        exit 1
    }
done
# The queryapi group has its own "shed" and "panics", so also check that
# the front-door counters sit in the fleet group itself.
python3 - "$workdir/vars.json" <<'EOF' || {
import json, sys
fleet = json.load(open(sys.argv[1]))["strudel"]["fleet"]
sys.exit(any(k not in fleet for k in ("edge_nanos", "shed", "timeouts", "panics")))
EOF
    echo "serve-smoke: fleet group missing a front-door counter:" >&2
    cat "$workdir/vars.json" >&2
    exit 1
}
# The live health grid: one state entry per replica of the 2x2 fleet.
for key in '"fleet_health"' '"shard0_replica0"' '"shard1_replica1"'; do
    grep -q "$key" "$workdir/vars.json" || {
        echo "serve-smoke: /debug/vars missing health-grid key $key:" >&2
        cat "$workdir/vars.json" >&2
        exit 1
    }
done
curl -fsS "http://$debugaddr/debug/pprof/" | grep -qi "profile" || {
    echo "serve-smoke: debug listener did not serve pprof index" >&2
    exit 1
}

# The query API rides the production listener: a StruQL POST must
# stream NDJSON rows over the same fleet the pages come from, and
# schema introspection must answer.
curl -fsS -d '{"query":"where Pubs(x), x -> \"title\" -> t"}' \
    "http://$addr/query" > "$workdir/query.ndjson" || {
    echo "serve-smoke: POST /query failed" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}
for key in '"kind":"header"' '"kind":"row"' '"kind":"end"' '"done":true'; do
    grep -q "$key" "$workdir/query.ndjson" || {
        echo "serve-smoke: /query stream missing $key:" >&2
        cat "$workdir/query.ndjson" >&2
        exit 1
    }
done
grep -q "Reloaded Entry" "$workdir/query.ndjson" || {
    echo "serve-smoke: /query does not see the hot-reloaded data:" >&2
    cat "$workdir/query.ndjson" >&2
    exit 1
}
curl -fsS "http://$addr/schema/labels" | grep -q '"title"' || {
    echo "serve-smoke: /schema/labels did not list the title label" >&2
    exit 1
}
# And its metrics group lands on the debug listener with the rest.
curl -fsS "http://$debugaddr/debug/vars" > "$workdir/vars2.json"
for key in '"queryapi"' '"rows_streamed"' '"pages_served"' '"schema_requests"'; do
    grep -q "$key" "$workdir/vars2.json" || {
        echo "serve-smoke: /debug/vars missing queryapi metric $key:" >&2
        cat "$workdir/vars2.json" >&2
        exit 1
    }
done

# Graceful drain: SIGTERM must produce a clean exit 0.
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: exit code $rc after SIGTERM, want 0" >&2
    cat "$workdir/serve.log" >&2
    exit 1
fi
grep -q "graceful shutdown complete" "$workdir/serve.log" || {
    echo "serve-smoke: no graceful-shutdown marker in log:" >&2
    cat "$workdir/serve.log" >&2
    exit 1
}

echo "serve-smoke: OK"
