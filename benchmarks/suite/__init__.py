"""The repository benchmark: four paper-derived workloads, host-time
end-to-end metrics and a span-traced per-layer split.  See README.md."""
