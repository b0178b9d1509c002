"""Experiment orchestration: campaigns, sweeps, reports and the CLI."""
