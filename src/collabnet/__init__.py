"""Toolkit for analyzing international research collaboration networks.

Pipeline: ingest publication records, build country-to-country collaboration
networks per (specialty, year) snapshot, run the network-statistics battery,
score citation impact against field baselines, fit random-intercept mixed
models over country-combination observations, and summarize growth and
convergence across years. A seeded synthetic-corpus generator provides
ground-truth data for testing.

The package exposes its modules, not their functions
(`from collabnet import metrics`), and importing it loads none of them, so
each command pays only for the modules it runs: numpy is loaded by `gen`,
`stats` and `regress` alone, and no command loads scipy.
"""

__version__ = "0.1.0"
