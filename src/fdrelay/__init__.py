"""Outage analysis for full-duplex MIMO decode-and-forward relaying with
zero-forcing beamforming: exact closed forms plus a Monte Carlo validator."""

__version__ = "0.1.0"
