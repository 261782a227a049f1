"""Implicit DG solver for 2D atmospheric flow, preconditioned by a
subcell finite-volume geometric multigrid method."""
