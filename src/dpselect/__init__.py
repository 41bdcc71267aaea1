"""Selective classification under differentially private training.

The submodules are the API: ``from dpselect.trainer import train`` and so
on. Importing ``dpselect`` itself loads nothing.
"""
