"""anomtax: four-way anomaly taxonomy labeling (ND/CNA/CPA/PA) and an
MLP classifier with GA-evolved initial weights for the borderline cases
where the four types meet."""
