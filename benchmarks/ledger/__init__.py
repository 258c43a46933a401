"""The WOW performance ledger (see README.md in this directory).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload in one process; ``python -m
benchmarks.ledger`` runs all six, one subprocess each, and compares sets.
"""
