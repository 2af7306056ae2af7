"""Batch length measurements and the claims-vs-measurements report.

A sweep solves a list of family instances, lining up each exact search
result against the builder word length and the published closed form, and
emits deterministic CSV for external plotting.  The errata report runs the
fixed battery of published claims against simulation and search.
"""

from carefulsync import errata_report, parse_family, sweep, sweep_csv

specs = [parse_family(f"grid:d=2,k={k}") for k in range(2, 7)]
specs += [parse_family(f"grid:d=3,k={k}") for k in range(2, 5)]
specs += [parse_family(f"cerny:n={n}") for n in (4, 6, 8)]
specs.append(parse_family("witness"))
specs.append(parse_family("padded:d=3,n=7"))

rows = sweep(specs)
print(sweep_csv(rows), end="")

print()
print(errata_report(), end="")
